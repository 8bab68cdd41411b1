// Command gcopssd runs one G-COPSS router daemon over TCP.
//
// Each daemon is a full Fig. 2 router: an NDN engine (FIB/PIT/Content
// Store) glued to the G-COPSS pub/sub engine (Subscription Table, RP
// logic). Connections from peers become faces; the handshake declares
// whether the peer is another router or an end host.
//
// A three-node deployment with an RP on the first node:
//
//	gcopssd -name R1 -listen :7001 -rp /rp1 -rp-prefixes "/,/1,/2,/3,/4,/5"
//	gcopssd -name R2 -listen :7002 -connect localhost:7001
//	gcopssd -name R3 -listen :7003 -connect localhost:7002
//
// Players then attach with gplayer.
//
// Every daemon records its packet-path steps into one 4096-record ring.
// With -trace-sample N it samples 1 in N publications and the ring keeps
// only the steps of sampled packets, joinable across daemons by trace ID;
// without it the ring keeps every step. With -debug, the daemon serves its
// runtime telemetry over HTTP: /metrics (Prometheus text exposition),
// /flight?n= (text dump of the ring), /debug/trace (Chrome trace-event JSON
// of the ring's sampled records; open in Perfetto) and /debug/pprof/*:
//
//	gcopssd -name R1 -listen :7001 -debug :7101 -trace-sample 16
//	curl http://localhost:7101/metrics
//	curl http://localhost:7101/debug/trace > trace.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/faultnet"
	"github.com/icn-gaming/gcopss/internal/obs"
	"github.com/icn-gaming/gcopss/internal/obs/trace"
	"github.com/icn-gaming/gcopss/internal/transport"
)

type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	if err := run(); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "gcopssd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name      = flag.String("name", "R1", "router name")
		listen    = flag.String("listen", ":7000", "listen address for faces")
		rpName    = flag.String("rp", "", "host an RP under this name (e.g. /rp1)")
		rpPrefix  = flag.String("rp-prefixes", "/,/1,/2,/3,/4,/5", "comma-separated CD prefixes the RP serves")
		debugAddr = flag.String("debug", "", "serve /metrics, /flight, /debug/trace and /debug/pprof on this address (empty = off)")
		traceRate = flag.Int("trace-sample", 0, "sample 1 in N publications for causal tracing; the /flight ring then keeps only sampled packets' steps (0 = no sampling, keep every step)")
		traceSeed = flag.Int64("trace-seed", 42, "sampling seed for -trace-sample")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn or error")
		faultSpec = flag.String("fault-spec", "", "inject egress faults, e.g. 'loss=0.05,reorder=0.2' or 'face2:only=ctl,loss=0.1' (empty = off)")
		faultSeed = flag.Int64("fault-seed", 1, "seed for the fault injector's randomness")
		connects  multiFlag
	)
	flag.Var(&connects, "connect", "neighbor router address (repeatable)")
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	root := obs.NewLogger(os.Stderr, level)
	lg := obs.Scoped(root, "gcopssd").With("router", *name)

	d := transport.NewDaemon(*name, core.WithTracer(trace.NewTracer(*traceRate, *traceSeed, 4096)))
	d.SetLogger(obs.Printf(obs.Scoped(root, "daemon")))
	if *traceRate > 0 {
		lg.Info("causal tracing armed", "sample", fmt.Sprintf("1/%d", *traceRate), "seed", fmt.Sprint(*traceSeed))
	}
	if *faultSpec != "" {
		spec, err := faultnet.ParseSpec(*faultSpec)
		if err != nil {
			return fmt.Errorf("bad -fault-spec: %w", err)
		}
		in := faultnet.New(spec, *faultSeed)
		in.SetEpoch(time.Now())
		in.Instrument(d.Router().Obs())
		d.SetFaults(in)
		lg.Info("fault injection armed", "spec", spec.String(), "seed", fmt.Sprint(*faultSeed))
	}
	addr, err := d.Listen(*listen)
	if err != nil {
		return err
	}
	lg.Info("listening", "addr", addr.String())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for _, peer := range connects {
		if err := d.ConnectRouter(peer); err != nil {
			return fmt.Errorf("connect %s: %w", peer, err)
		}
		lg.Info("linked to neighbor", "peer", peer)
	}

	errc := make(chan error, 1)
	go func() { errc <- d.Run(ctx) }()

	if *debugAddr != "" {
		da, err := d.ServeDebug(ctx, *debugAddr)
		if err != nil {
			return err
		}
		lg.Info("debug endpoint up", "addr", da.String())
	}

	if *rpName != "" {
		// Give the neighbor links a moment to attach before flooding.
		time.Sleep(300 * time.Millisecond)
		var prefixes []cd.CD
		for _, p := range strings.Split(*rpPrefix, ",") {
			c, err := cd.Parse(strings.TrimSpace(p))
			if err != nil {
				return fmt.Errorf("bad RP prefix %q: %w", p, err)
			}
			prefixes = append(prefixes, c)
		}
		if err := d.BecomeRP(copss.RPInfo{Name: *rpName, Prefixes: prefixes, Seq: 1}); err != nil {
			return err
		}
		lg.Info("hosting RP", "rp", *rpName, "prefixes", fmt.Sprint(prefixes))
	}

	return <-errc
}
