package trace

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestSampleIDDeterministic: same (origin, seq, every, seed) must always
// give the same decision and ID — seeded replays trace the same packets.
func TestSampleIDDeterministic(t *testing.T) {
	a := NewTracer(4, 42, 16)
	b := NewTracer(4, 42, 16)
	for seq := uint64(0); seq < 1000; seq++ {
		if got, want := a.SampleID("p1", seq), b.SampleID("p1", seq); got != want {
			t.Fatalf("seq %d: %#x vs %#x across identical tracers", seq, got, want)
		}
	}
}

// TestSampleIDSeedChangesSelection: a different seed must pick a different
// subset (with overwhelming probability over 10k publications).
func TestSampleIDSeedChangesSelection(t *testing.T) {
	a := NewTracer(4, 1, 16)
	b := NewTracer(4, 2, 16)
	same := 0
	for seq := uint64(0); seq < 10000; seq++ {
		sa := a.SampleID("p", seq) != 0
		sb := b.SampleID("p", seq) != 0
		if sa == sb {
			same++
		}
	}
	if same == 10000 {
		t.Fatal("seeds 1 and 2 selected identical sample sets over 10k publications")
	}
}

// TestSampleIDRate: 1-in-N sampling should land near 1/N. The hash is
// deterministic, so the tolerance just guards against a broken mixer
// (e.g. modulo over unmixed low bits).
func TestSampleIDRate(t *testing.T) {
	const n, pubs = 8, 100000
	tr := NewTracer(n, 7, 16)
	hits := 0
	for seq := uint64(0); seq < pubs; seq++ {
		if tr.SampleID("player-17", seq) != 0 {
			hits++
		}
	}
	want := pubs / n
	if hits < want/2 || hits > want*2 {
		t.Fatalf("1-in-%d sampling hit %d of %d publications (expected ~%d)", n, hits, pubs, want)
	}
}

// TestSampleIDDisabled: nil tracer and every<=0 both sample nothing.
func TestSampleIDDisabled(t *testing.T) {
	var nilT *Tracer
	if got := nilT.SampleID("p", 1); got != 0 {
		t.Errorf("nil tracer sampled: %#x", got)
	}
	for _, every := range []int{0, -1} {
		tr := NewTracer(every, 42, 16)
		for seq := uint64(0); seq < 100; seq++ {
			if got := tr.SampleID("p", seq); got != 0 {
				t.Errorf("every=%d sampled seq %d: %#x", every, seq, got)
			}
		}
	}
}

// TestSampleIDNonzero: every sampled ID is nonzero (0 means untraced).
func TestSampleIDNonzero(t *testing.T) {
	tr := NewTracer(1, 0, 16) // trace everything
	for seq := uint64(0); seq < 1000; seq++ {
		if tr.SampleID("p", seq) == 0 {
			t.Fatalf("every=1 failed to sample seq %d", seq)
		}
	}
}

// TestRingAppendSnapshot covers wrap-around ordering: oldest-first with the
// overwritten prefix gone.
func TestRingAppendSnapshot(t *testing.T) {
	tr := NewTracer(1, 0, 4)
	r := tr.Ring("R1")
	for i := 0; i < 6; i++ {
		r.Append(Hop{TraceID: 1, Seq: uint64(i)})
	}
	if got := r.Recorded(); got != 6 {
		t.Errorf("Recorded = %d, want 6", got)
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(snap))
	}
	for i, h := range snap {
		if want := uint64(i + 2); h.Seq != want {
			t.Errorf("snap[%d].Seq = %d, want %d", i, h.Seq, want)
		}
	}
}

// TestRingDump pins the /flight text format: a header, then the last n
// retained records oldest-first, each numbered by its append ordinal and
// carrying its trace ID only when it has one.
func TestRingDump(t *testing.T) {
	r := NewTracer(0, 0, 4).Ring("R1")
	for i := 0; i < 6; i++ {
		r.Append(Hop{At: int64(i), Event: HopMulticast, Face: int64(i), CD: "/1/2", Origin: "p1"})
	}
	r.Append(Hop{TraceID: 0xab, At: 6, Event: HopDrop, Face: -1, Name: "/rp1", Note: "no route to RP"})

	var sb strings.Builder
	if err := r.Dump(&sb, 0); err != nil {
		t.Fatal(err)
	}
	want := "# flight recorder: 4 events retained, 7 recorded\n" +
		"#3 t=3ns multicast face=3 cd=/1/2 origin=p1\n" +
		"#4 t=4ns multicast face=4 cd=/1/2 origin=p1\n" +
		"#5 t=5ns multicast face=5 cd=/1/2 origin=p1\n" +
		"#6 t=6ns drop face=-1 name=/rp1 note=\"no route to RP\" trace=00000000000000ab\n"
	if got := sb.String(); got != want {
		t.Errorf("Dump(0) =\n%s\nwant\n%s", got, want)
	}

	sb.Reset()
	if err := r.Dump(&sb, 2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[1], "#5 ") || !strings.HasPrefix(lines[2], "#6 ") {
		t.Errorf("Dump(2) =\n%s\nwant the header and records #5, #6", sb.String())
	}
}

// TestRingKeepRule: with sampling off a ring keeps every record; with
// sampling on it keeps only records carrying a TraceID.
func TestRingKeepRule(t *testing.T) {
	for _, tc := range []struct {
		every int
		want  []uint64 // TraceIDs retained
	}{
		{every: 0, want: []uint64{0, 7}},
		{every: 4, want: []uint64{7}},
	} {
		r := NewTracer(tc.every, 0, 8).Ring("R1")
		r.Append(Hop{Event: HopFanOut})
		r.Append(Hop{TraceID: 7, Event: HopFanOut})
		var got []uint64
		for _, h := range r.Snapshot() {
			got = append(got, h.TraceID)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("every=%d: retained trace IDs %v, want %v", tc.every, got, tc.want)
		}
		if r.Recorded() != uint64(len(tc.want)) {
			t.Errorf("every=%d: Recorded = %d, want %d", tc.every, r.Recorded(), len(tc.want))
		}
	}
}

// TestRingRegistrationIdempotent: Ring(name) returns the same ring, and
// Rings() lists them sorted by name.
func TestRingRegistrationIdempotent(t *testing.T) {
	tr := NewTracer(1, 0, 8)
	r1 := tr.Ring("R2")
	if tr.Ring("R2") != r1 {
		t.Error("Ring(\"R2\") returned a different ring on second call")
	}
	tr.Ring("R1")
	rings := tr.Rings()
	if len(rings) != 2 || rings[0].Name() != "R1" || rings[1].Name() != "R2" {
		names := make([]string, len(rings))
		for i, r := range rings {
			names[i] = r.Name()
		}
		t.Errorf("Rings() = %v, want [R1 R2]", names)
	}
}

// TestRingSnapshotRace is the read-during-write regression (run under
// -race): shard writers append hot while exporters snapshot and dump.
func TestRingSnapshotRace(t *testing.T) {
	tr := NewTracer(1, 0, 64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		r := tr.Ring(fmt.Sprintf("R%d", w))
		wg.Add(2)
		go func(r *Ring) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				r.Append(Hop{TraceID: uint64(i), At: int64(i), Event: HopFanOut})
			}
		}(r)
		go func(r *Ring) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				snap := r.Snapshot()
				for j := 1; j < len(snap); j++ {
					if snap[j].TraceID < snap[j-1].TraceID {
						t.Error("snapshot not oldest-first")
						return
					}
				}
				if err := r.Dump(io.Discard, 16); err != nil {
					t.Error(err)
					return
				}
				r.Recorded()
			}
		}(r)
	}
	wg.Wait()
}

// TestHopEventStrings pins the export vocabulary.
func TestHopEventStrings(t *testing.T) {
	want := map[HopEvent]string{
		HopInterest:    "interest",
		HopData:        "data",
		HopSubscribe:   "subscribe",
		HopUnsubscribe: "unsubscribe",
		HopMulticast:   "multicast",
		HopAnnounce:    "announce",
		HopJoin:        "join",
		HopConfirm:     "confirm",
		HopLeave:       "leave",
		HopHandoff:     "handoff",
		HopPrune:       "prune",
		HopEncapsulate: "encapsulate",
		HopRPDeliver:   "rp-deliver",
		HopFanOut:      "fan-out",
		HopRedirect:    "redirect",
		HopDrop:        "drop",
		HopMigration:   "migration",
		HopRetransmit:  "retransmit",
		HopEvent(0):    "unknown",
		HopEvent(99):   "unknown",
	}
	for e, s := range want {
		if e.String() != s {
			t.Errorf("HopEvent(%d).String() = %q, want %q", e, e.String(), s)
		}
	}
}

// TestSampleAndAppendAllocFree pins the steady-state budget at 0 allocs/op
// for both the sampling decision (hit and miss) and the hop append.
func TestSampleAndAppendAllocFree(t *testing.T) {
	tr := NewTracer(2, 42, 256)
	r := tr.Ring("R1")
	allocs := testing.AllocsPerRun(1000, func() {
		id := tr.SampleID("player-17", 12345)
		if id != 0 {
			r.Append(Hop{TraceID: id, At: 1, Event: HopFanOut})
		}
		r.Append(Hop{TraceID: 1, At: 2, Event: HopRPDeliver})
	})
	if allocs != 0 {
		t.Errorf("SampleID+Append: %.1f allocs/op, want 0", allocs)
	}
	var nilT *Tracer
	allocs = testing.AllocsPerRun(1000, func() {
		_ = nilT.SampleID("player-17", 12345)
	})
	if allocs != 0 {
		t.Errorf("nil SampleID: %.1f allocs/op, want 0", allocs)
	}
}
