package testbed

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/faultnet"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// hostSeen is one copy as a host observed it.
type hostSeen struct {
	at     time.Duration
	origin string
	seq    uint64
}

// hostOutcome is everything a host-delivery case can observe: each host's
// copies in service order and FIFO counters, and the testbed's totals.
type hostOutcome struct {
	seen         [4][]hostSeen
	events       [4]uint64
	maxQueue     [4]time.Duration
	packetEvents uint64
	bytes        float64
}

// runHostCase builds two relays with two hosts each and plays the ops data
// encodes: Injects to relays and hosts (between Runs and during Run), direct
// sends from a relay (which may overtake the relay's own output), fault
// injector on/off, Run deadlines, and sends made between Runs. With queued
// set, "off" installs the empty-rule injector too, so every copy goes
// through the event queue.
func runHostCase(data []byte, queued bool) (hostOutcome, error) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	tenths := func() time.Duration { return time.Duration(next()%32) * 100 * time.Microsecond }
	var out hostOutcome
	tb := New()
	in := faultnet.New(nil, 1)
	off := (*faultnet.Injector)(nil)
	if queued {
		off = in
		tb.SetFaults(in)
	}
	relays := []string{"r0", "r1"}
	for _, r := range relays {
		proc, perCopy := tenths(), tenths()
		tb.AddNode(r, func(_ time.Time, _ ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
			for f := ndn.FaceID(1); f <= 2; f++ {
				if pkt.Seq&uint64(f) != 0 {
					sink.Emit(ndn.Action{Face: f, Packet: pkt})
				}
			}
		}, func(*wire.Packet) time.Duration { return proc }, perCopy)
	}
	for h := range out.seen {
		h, proc := h, tenths()
		tb.AddHost(fmt.Sprintf("h%d", h), func(at time.Time, pkt *wire.Packet) {
			out.seen[h] = append(out.seen[h], hostSeen{time.Duration(at.UnixNano()), pkt.Origin, pkt.Seq})
		}, func(*wire.Packet) time.Duration { return proc })
		if err := tb.Connect(relays[h/2], ndn.FaceID(1+h%2), fmt.Sprintf("h%d", h), 0, 100*time.Microsecond+tenths()); err != nil {
			return out, err
		}
	}
	seq := uint64(0)
	packet := func(origin string) *wire.Packet {
		seq++
		return &wire.Packet{Type: wire.TypeMulticast, Origin: origin, Seq: seq}
	}
	for ops := 0; len(data) > 0 && ops < 64; ops++ {
		op, k, at := next()%8, next(), tb.Now().Add(tenths())
		relay, face := relays[k%2], ndn.FaceID(1+k/2%2)
		switch op {
		case 0:
			tb.Inject(at, relay, 0, packet("inject"))
		case 1:
			pkt := packet("send")
			tb.Schedule(at, func(now time.Time) { tb.Emit(now, relay, []ndn.Action{{Face: face, Packet: pkt}}) })
		case 2:
			tb.Inject(at, fmt.Sprintf("h%d", k%4), 0, packet("host"))
		case 3:
			tb.Schedule(at, func(time.Time) { tb.SetFaults(in) })
		case 4:
			tb.Schedule(at, func(time.Time) { tb.SetFaults(off) })
		case 5:
			if err := tb.Run(at, 0); err != nil {
				return out, err
			}
		case 6:
			tb.Emit(tb.Now(), relay, []ndn.Action{{Face: face, Packet: packet("between")}})
		case 7:
			pkt, d := packet("during"), tenths()
			tb.Schedule(at, func(now time.Time) { tb.Inject(now.Add(d), fmt.Sprintf("h%d", k%4), 0, pkt) })
		}
	}
	if err := tb.Run(tb.Now().Add(time.Second), 0); err != nil {
		return out, err
	}
	for h := range out.seen {
		out.events[h], out.maxQueue[h] = tb.hosts[h].packetEvents, tb.hosts[h].maxQueue
	}
	out.packetEvents, out.bytes = tb.Stats()
	return out, nil
}

// FuzzHostDelivery runs each case as built and with every copy queued: the
// hosts must see the same copies at the same times, with the same FIFO
// counters, unless the early run stopped on the ordering guard.
func FuzzHostDelivery(f *testing.F) {
	f.Add([]byte{3, 5, 1, 2, 0, 9, 3, 1, 4, 0, 2, 5})
	f.Add([]byte{0, 0, 1, 2, 3, 4, 0, 3, 2, 1, 5, 7, 4, 0, 0, 3, 3, 3, 0, 5, 1})
	f.Add([]byte{31, 2, 7, 7, 7, 7, 0, 1, 0, 0, 1, 0, 5, 0, 9, 2, 2, 2, 6, 3, 0, 4, 1, 1, 0, 3, 30})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 31, 1, 1, 0, 6, 2, 0, 2, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		early, err := runHostCase(data, false)
		queued, qerr := runHostCase(data, true)
		if qerr != nil {
			t.Fatalf("queued run: %v", qerr)
		}
		if err != nil {
			if !strings.Contains(err.Error(), "out of order") {
				t.Fatalf("early run: %v", err)
			}
			return
		}
		if !reflect.DeepEqual(early, queued) {
			t.Fatalf("served when sent:\n%+v\nqueued:\n%+v", early, queued)
		}
	})
}

// TestHostOvertakeFailsRun: a node's direct send overtakes the copy its
// service path already sent toward a host, which the host has served. Run
// must say so, naming the host, rather than serve the host out of order.
func TestHostOvertakeFailsRun(t *testing.T) {
	tb := New()
	tb.AddNode("a", func(_ time.Time, _ ndn.FaceID, pkt *wire.Packet, out ndn.ActionSink) {
		out.Emit(ndn.Action{Face: 1, Packet: pkt})
	}, func(*wire.Packet) time.Duration { return 10 * time.Millisecond }, 0)
	tb.AddHost("h", nil, func(*wire.Packet) time.Duration { return 0 })
	if err := tb.Connect("a", 1, "h", 0, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	t0 := tb.Now()
	pkt := &wire.Packet{Type: wire.TypeMulticast, Origin: "a"}
	tb.Inject(t0, "a", 0, pkt) // served 0–10 ms: its copy reaches h at 11 ms
	tb.Schedule(t0.Add(time.Millisecond), func(now time.Time) {
		tb.Emit(now, "a", []ndn.Action{{Face: 1, Packet: pkt}}) // reaches h at 2 ms
	})
	err := tb.Run(t0.Add(time.Second), 0)
	if err == nil || !strings.Contains(err.Error(), "host h:") {
		t.Fatalf("Run = %v, want the ordering error naming host h", err)
	}
	if again := tb.Run(t0.Add(2*time.Second), 0); again != err {
		t.Errorf("second Run = %v, want the same error", again)
	}
}

// TestHostInjectAtServedInstant: during Run, an Inject at the instant a copy
// served when sent arrives would run first in queue order (global events
// lead at an instant), so Run fails; made between Runs, after that copy's
// event would have run, the same Inject is served in order.
func TestHostInjectAtServedInstant(t *testing.T) {
	for _, during := range []bool{true, false} {
		tb := New()
		tb.AddNode("a", nil, func(*wire.Packet) time.Duration { return 0 }, 0)
		served := 0
		tb.AddHost("h", func(time.Time, *wire.Packet) { served++ }, func(*wire.Packet) time.Duration { return 0 })
		if err := tb.Connect("a", 1, "h", 0, time.Millisecond); err != nil {
			t.Fatal(err)
		}
		t0, pkt := tb.Now(), &wire.Packet{Type: wire.TypeMulticast, Origin: "a"}
		tb.Schedule(t0, func(now time.Time) {
			tb.Emit(now, "a", []ndn.Action{{Face: 1, Packet: pkt}}) // arrives at 1 ms
			if during {
				tb.Inject(now.Add(time.Millisecond), "h", 0, pkt)
			}
		})
		if err := tb.Run(t0.Add(time.Millisecond), 0); during != (err != nil) {
			t.Fatalf("during=%v: first Run = %v", during, err)
		}
		if during {
			continue
		}
		tb.Inject(t0.Add(time.Millisecond), "h", 0, pkt)
		if err := tb.Run(t0.Add(time.Second), 0); err != nil || served != 2 {
			t.Fatalf("Inject between Runs: Run = %v, served %d, want nil and 2", err, served)
		}
	}
}

// TestConnectRejectsSecondHostWire: a host has one wire, at either end of
// Connect.
func TestConnectRejectsSecondHostWire(t *testing.T) {
	tb := New()
	zero := func(*wire.Packet) time.Duration { return 0 }
	tb.AddNode("a", nil, zero, 0)
	tb.AddNode("b", nil, zero, 0)
	tb.AddHost("h", nil, zero)
	if err := tb.Connect("a", 1, "h", 0, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := tb.Connect("b", 1, "h", 1, time.Millisecond); err == nil {
		t.Error("second wire on host h accepted")
	}
	if err := tb.Connect("h", 2, "b", 2, time.Millisecond); err == nil {
		t.Error("second wire on host h accepted from its side")
	}
}

// TestHostServedWhenSentAllocFree pins the early path at 0 allocations: a
// send from a node to a host inside Run is served at once, with no event.
func TestHostServedWhenSentAllocFree(t *testing.T) {
	tb := New()
	zero := func(*wire.Packet) time.Duration { return 0 }
	tb.AddNode("a", nil, zero, 0)
	served := 0
	tb.AddHost("h", func(time.Time, *wire.Packet) { served++ }, func(*wire.Packet) time.Duration { return time.Microsecond })
	if err := tb.Connect("a", 1, "h", 0, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	acts := []ndn.Action{{Face: 1, Packet: &wire.Packet{Type: wire.TypeMulticast, Origin: "a", Payload: make([]byte, 64)}}}
	allocs, pending := -1.0, -1
	tb.Schedule(tb.Now(), func(now time.Time) {
		allocs = testing.AllocsPerRun(100, func() { tb.Emit(now, "a", acts) })
		pending = tb.sched.Pending()
	})
	if err := tb.Run(tb.Now().Add(time.Second), 0); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("early host delivery allocates %.1f per send, want 0", allocs)
	}
	if served != 101 || pending != 0 {
		t.Errorf("served %d copies with %d events pending, want 101 served when sent, none queued", served, pending)
	}
}
