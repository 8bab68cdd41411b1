// Command gplayer attaches a player to a gcopssd router.
//
// The player is positioned in an area of a uniform hierarchical map and
// subscribes per the paper's visibility rules (its own area plus the
// airspace leaves of its ancestors). Stdin lines are published as updates;
// received updates are printed.
//
//	gplayer -name soldier7 -router localhost:7002 -area /1/2
//
// Commands on stdin:
//
//	<text>            publish <text> to the current position
//	/move <area>      relocate (resubscribes per the movement rules)
//	/quit             exit
//
// With -debug, the client's counters (sent/received packets, faultnet
// decisions) are exposed at /metrics alongside /debug/pprof/*.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/icn-gaming/gcopss/internal/broker"
	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/faultnet"
	"github.com/icn-gaming/gcopss/internal/flowctl"
	"github.com/icn-gaming/gcopss/internal/gamemap"
	"github.com/icn-gaming/gcopss/internal/obs"
	"github.com/icn-gaming/gcopss/internal/transport"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// fetchMgr routes incoming Data packets to in-progress snapshot downloads.
type fetchMgr struct {
	// mu serializes the stdin loop (begin), the receive loop (handleData)
	// and the retry ticker (tick).
	mu sync.Mutex
	// fetches is the set of in-progress QR downloads.
	//
	//gcopss:guardedby mu
	fetches []*broker.QRFetch
	client  *transport.Client
}

// begin starts QR downloads for the given leaves.
func (m *fetchMgr) begin(leaves []cd.CD) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, leaf := range leaves {
		f := broker.NewFetch(leaf, flowctl.WithWindow(1, 15, 32))
		m.fetches = append(m.fetches, f)
		for _, pkt := range f.StartAt(time.Now()) {
			if err := m.client.Send(pkt); err != nil {
				return err
			}
		}
	}
	return nil
}

// handleData feeds a Data packet to the active fetches; it reports the
// number of objects received by fetches that just completed.
func (m *fetchMgr) handleData(pkt *wire.Packet) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	completed := 0
	var still []*broker.QRFetch
	for _, f := range m.fetches {
		follow, done := f.HandleDataAt(time.Now(), pkt)
		for _, out := range follow {
			m.client.Send(out) //lint:allow errcheckedfaces connection errors surface on Receive
		}
		if done {
			completed += f.Received()
		} else if !f.Failed() {
			still = append(still, f)
		}
	}
	m.fetches = still
	return completed
}

// tick drives the retry timers of the active fetches; failed downloads are
// dropped (the player can /move again to retry from scratch).
func (m *fetchMgr) tick(now time.Time, lg *slog.Logger) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var still []*broker.QRFetch
	for _, f := range m.fetches {
		for _, out := range f.Tick(now) {
			m.client.Send(out) //lint:allow errcheckedfaces connection errors surface on Receive
		}
		if f.Failed() {
			lg.Warn("snapshot download failed", "received", f.Received())
			continue
		}
		if !f.Done() {
			still = append(still, f)
		}
	}
	m.fetches = still
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gplayer:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name      = flag.String("name", "player1", "player name")
		router    = flag.String("router", "localhost:7000", "router address")
		areaStr   = flag.String("area", "/1/1", "starting area on the map")
		regions   = flag.Int("regions", 5, "map regions")
		zones     = flag.Int("zones", 5, "zones per region")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn or error")
		faultSpec = flag.String("fault-spec", "", "inject uplink faults, e.g. 'loss=0.05' (empty = off)")
		faultSeed = flag.Int64("fault-seed", 1, "seed for the fault injector's randomness")
		debugAddr = flag.String("debug", "", "serve /metrics and /debug/pprof on this address (empty = off)")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	lg := obs.Scoped(obs.NewLogger(os.Stderr, level), "gplayer").With("player", *name)

	m, err := gamemap.NewGrid(*regions, *zones)
	if err != nil {
		return err
	}
	area, err := m.Lookup(*areaStr)
	if err != nil {
		return err
	}
	player := gamemap.NewPlayer(*name, area)

	client, err := transport.NewClient(*name, *router)
	if err != nil {
		return err
	}
	defer client.Close() //nolint:errcheck // shutdown path
	// The player's registry is counters-only (client send/receive counts,
	// faultnet decisions), so the debug scraper reads it without locking.
	reg := obs.NewRegistry()
	client.Instrument(reg)
	if *faultSpec != "" {
		spec, err := faultnet.ParseSpec(*faultSpec)
		if err != nil {
			return fmt.Errorf("bad -fault-spec: %w", err)
		}
		in := faultnet.New(spec, *faultSeed)
		in.SetEpoch(time.Now())
		in.Instrument(reg)
		client.SetFaults(in)
		lg.Info("fault injection armed", "spec", spec.String(), "seed", fmt.Sprint(*faultSeed))
	}
	if *debugAddr != "" {
		mux := obs.NewDebugMux(func(w io.Writer) {
			reg.WriteText(w) //nolint:errcheck // exposition write failure surfaces as a truncated scrape
		}, nil, nil)
		da, err := obs.ServeDebug(context.Background(), *debugAddr, mux, obs.Printf(lg))
		if err != nil {
			return err
		}
		lg.Info("debug endpoint up", "addr", da.String())
	}

	if err := client.Subscribe(player.SubscriptionCDs()...); err != nil {
		return err
	}
	lg.Info("joined", "area", fmt.Sprint(area.CD()), "subscriptions", fmt.Sprint(player.SubscriptionCDs()))

	mgr := &fetchMgr{client: client}
	go func() {
		for range time.Tick(100 * time.Millisecond) {
			mgr.tick(time.Now(), lg)
		}
	}()
	resubscribe := func() error { return client.Subscribe(player.SubscriptionCDs()...) }
	go receiveLoop(client, *name, mgr, resubscribe, lg)

	sc := bufio.NewScanner(os.Stdin)
	var seq uint64
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == "/quit":
			return nil
		case strings.HasPrefix(line, "/move "):
			dest, err := m.Lookup(strings.TrimSpace(strings.TrimPrefix(line, "/move ")))
			if err != nil {
				lg.Warn("bad area", "err", err)
				continue
			}
			res, err := player.Move(dest)
			if err != nil {
				lg.Warn("move rejected", "err", err)
				continue
			}
			if len(res.Unsubscribe) > 0 {
				if err := client.Unsubscribe(res.Unsubscribe...); err != nil {
					return err
				}
			}
			if len(res.Subscribe) > 0 {
				if err := client.Subscribe(res.Subscribe...); err != nil {
					return err
				}
			}
			lg.Info("moved", "type", fmt.Sprint(res.Type), "subscribe", fmt.Sprint(res.Subscribe),
				"unsubscribe", fmt.Sprint(res.Unsubscribe), "snapshot_areas", len(res.Snapshots))
			if len(res.Snapshots) > 0 {
				// Download the unseen areas from whatever broker serves
				// /snapshot (objects arrive asynchronously; see the log).
				if err := mgr.begin(res.Snapshots); err != nil {
					return err
				}
			}
		default:
			seq++
			if err := client.Publish(player.PublishCD(), seq, []byte(line)); err != nil {
				return err
			}
		}
	}
	return sc.Err()
}

func receiveLoop(client *transport.Client, self string, mgr *fetchMgr, resubscribe func() error, lg *slog.Logger) {
	for {
		pkt, err := client.Receive()
		if err != nil {
			lg.Warn("connection lost, reconnecting", "err", err)
			if err := client.Reconnect(nil); err != nil {
				lg.Info("reconnect gave up", "err", err)
				os.Exit(0)
			}
			// Subscriptions are face state on the router: re-issue them.
			if err := resubscribe(); err != nil {
				lg.Info("resubscribe failed", "err", err)
				os.Exit(0)
			}
			lg.Info("reconnected")
			continue
		}
		switch {
		case pkt.Type == wire.TypeData:
			if n := mgr.handleData(pkt); n > 0 {
				lg.Info("snapshot area downloaded", "changed_objects", n)
			}
		case pkt.Type == wire.TypeMulticast && pkt.Origin != self && pkt.Origin != core.FlushOrigin:
			latency := ""
			if pkt.SentAt != 0 {
				latency = fmt.Sprintf("%.2fms", float64(time.Now().UnixNano()-pkt.SentAt)/1e6)
			}
			if c, err := pkt.CD(); err == nil {
				lg.Info("update", "cd", fmt.Sprint(c), "from", pkt.Origin, "payload", string(pkt.Payload), "latency", latency)
			}
		}
	}
}
