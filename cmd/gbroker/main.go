// Command gbroker runs a snapshot broker against a gcopssd router.
//
// The broker subscribes to the leaf CDs of its serving areas, maintains
// object snapshots from the update stream (Eq. 1 of the paper), answers NDN
// snapshot queries (manifest, per-object, recent-update log) and runs
// cyclic-multicast sessions for movers.
//
//	gbroker -name broker1 -router localhost:7001 -areas "/1/1,/1/2,/1"
//
// An empty -areas serves every leaf of the map. With -debug, the broker's
// registry (update/query counters, snapshot-query latency histogram, active
// cyclic sessions) is exposed at /metrics alongside /debug/pprof/*.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/icn-gaming/gcopss/internal/broker"
	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/faultnet"
	"github.com/icn-gaming/gcopss/internal/gamemap"
	"github.com/icn-gaming/gcopss/internal/obs"
	"github.com/icn-gaming/gcopss/internal/transport"
	"github.com/icn-gaming/gcopss/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gbroker:", err)
		os.Exit(1)
	}
}

// brokerHost serializes access to the broker state machine, which is not
// goroutine-safe: the cyclic ticker, the receive loop, the stats ticker and
// the debug scraper all go through mu.
type brokerHost struct {
	mu sync.Mutex
	// b is the broker state machine.
	//
	//gcopss:guardedby mu
	b *broker.Broker
}

func run() error {
	var (
		name      = flag.String("name", "broker1", "broker name")
		router    = flag.String("router", "localhost:7000", "router address")
		areas     = flag.String("areas", "", "comma-separated areas to serve (empty = whole map)")
		regions   = flag.Int("regions", 5, "map regions")
		zones     = flag.Int("zones", 5, "zones per region")
		tick      = flag.Duration("tick", 2*time.Millisecond, "cyclic multicast pacing")
		decay     = flag.Float64("decay", gamemap.DefaultDecay, "snapshot size decay λ")
		debugAddr = flag.String("debug", "", "serve /metrics and /debug/pprof on this address (empty = off)")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn or error")
		faultSpec = flag.String("fault-spec", "", "inject uplink faults, e.g. 'loss=0.05' (empty = off)")
		faultSeed = flag.Int64("fault-seed", 1, "seed for the fault injector's randomness")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	lg := obs.Scoped(obs.NewLogger(os.Stderr, level), "gbroker").With("broker", *name)

	m, err := gamemap.NewGrid(*regions, *zones)
	if err != nil {
		return err
	}
	var leaves []cd.CD
	if *areas == "" {
		leaves = m.Leaves()
	} else {
		for _, s := range strings.Split(*areas, ",") {
			area, err := m.Lookup(strings.TrimSpace(s))
			if err != nil {
				return err
			}
			leaves = append(leaves, area.LeafCD())
		}
	}

	b := broker.New(*name, leaves, broker.WithDecay(*decay))
	host := &brokerHost{b: b}
	// The histogram is internally synchronized; capture it once here, before
	// any goroutine starts, so the hot receive loop can observe latencies
	// without taking the broker lock.
	queryLat := b.QueryLatency()

	client, err := transport.NewClient(*name, *router)
	if err != nil {
		return err
	}
	defer client.Close() //nolint:errcheck // shutdown path
	if *faultSpec != "" {
		spec, err := faultnet.ParseSpec(*faultSpec)
		if err != nil {
			return fmt.Errorf("bad -fault-spec: %w", err)
		}
		in := faultnet.New(spec, *faultSeed)
		in.SetEpoch(time.Now())
		in.Instrument(b.Obs())
		client.SetFaults(in)
		lg.Info("fault injection armed", "spec", spec.String(), "seed", fmt.Sprint(*faultSeed))
	}

	// Subscriptions and the snapshot-prefix announcement are face state on
	// the router; they must be re-issued after every (re)connect.
	announce := func() error {
		host.mu.Lock()
		subCDs := host.b.SubscriptionCDs()
		host.mu.Unlock()
		if err := client.Subscribe(subCDs...); err != nil {
			return err
		}
		// Make the snapshot namespace routable network-wide.
		return client.AnnouncePrefix(broker.SnapshotPrefix, uint64(time.Now().UnixNano()))
	}
	if err := announce(); err != nil {
		return err
	}
	lg.Info("serving", "leaves", len(leaves), "router", *router)

	if *debugAddr != "" {
		mux := obs.NewDebugMux(func(w io.Writer) {
			host.mu.Lock()
			defer host.mu.Unlock()
			host.b.Obs().WriteText(w)
		}, nil, nil)
		da, err := obs.ServeDebug(context.Background(), *debugAddr, mux, obs.Printf(lg))
		if err != nil {
			return err
		}
		lg.Info("debug endpoint up", "addr", da.String())
	}

	// Cyclic session pacing.
	go func() {
		ticker := time.NewTicker(*tick)
		defer ticker.Stop()
		for range ticker.C {
			host.mu.Lock()
			outs := host.b.Tick()
			host.mu.Unlock()
			for _, pkt := range outs {
				if err := client.Send(pkt); err != nil {
					return
				}
			}
		}
	}()

	// Periodic stats line.
	go func() {
		ticker := time.NewTicker(10 * time.Second)
		defer ticker.Stop()
		for range ticker.C {
			host.mu.Lock()
			u, q, c := host.b.Stats()
			sessions := host.b.ActiveSessions()
			host.mu.Unlock()
			lg.Info("stats", "updates", u, "queries", q, "cycled", c, "sessions", fmt.Sprint(sessions))
		}
	}()

	for {
		pkt, err := client.Receive()
		if err != nil {
			lg.Warn("connection lost, reconnecting", "err", err)
			if err := client.Reconnect(nil); err != nil {
				return fmt.Errorf("reconnect gave up: %w", err)
			}
			if err := announce(); err != nil {
				return fmt.Errorf("re-announce after reconnect: %w", err)
			}
			lg.Info("reconnected")
			continue
		}
		if pkt.Type == wire.TypeMulticast && pkt.Origin == *name {
			continue // our own cyclic emissions echoed back
		}
		// Snapshot queries arrive as Interests; time them host-side — the
		// broker itself is a pure state machine with no clock.
		isQuery := pkt.Type == wire.TypeInterest
		start := time.Now()
		host.mu.Lock()
		outs := host.b.HandlePacket(pkt)
		host.mu.Unlock()
		if isQuery {
			queryLat.Observe(float64(time.Since(start).Nanoseconds()) / 1e6)
		}
		for _, out := range outs {
			if err := client.Send(out); err != nil {
				return fmt.Errorf("send: %w", err)
			}
		}
	}
}
