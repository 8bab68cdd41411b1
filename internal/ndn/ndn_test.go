package ndn

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/icn-gaming/gcopss/internal/wire"
)

func TestFIBLongestPrefixMatch(t *testing.T) {
	var fib FIB
	fib.Add("/", 1)
	fib.Add("/a", 2)
	fib.Add("/a/b", 3)
	fib.Add("/a/b", 4)
	fib.Add("/c", 5)

	tests := []struct {
		name       string
		wantFaces  []FaceID
		wantPrefix string
	}{
		{"/a/b/c", []FaceID{3, 4}, "/a/b"},
		{"/a/b", []FaceID{3, 4}, "/a/b"},
		{"/a/x", []FaceID{2}, "/a"},
		{"/ab", []FaceID{1}, "/"}, // component boundary: /a does not match /ab
		{"/c/deep/name", []FaceID{5}, "/c"},
		{"/zzz", []FaceID{1}, "/"},
	}
	for _, tt := range tests {
		faces, prefix, ok := fib.Lookup(tt.name)
		if !ok {
			t.Errorf("Lookup(%q) missed", tt.name)
			continue
		}
		if !reflect.DeepEqual(faces, tt.wantFaces) || prefix != tt.wantPrefix {
			t.Errorf("Lookup(%q) = %v @ %q, want %v @ %q", tt.name, faces, prefix, tt.wantFaces, tt.wantPrefix)
		}
	}
}

func TestFIBNoDefaultRoute(t *testing.T) {
	var fib FIB
	fib.Add("/a", 1)
	if _, _, ok := fib.Lookup("/b"); ok {
		t.Error("Lookup should miss without default route")
	}
	if _, _, ok := fib.Lookup("/"); ok {
		t.Error("root lookup should miss without root entry")
	}
}

func TestFIBRemove(t *testing.T) {
	var fib FIB
	fib.Add("/a", 1)
	fib.Add("/a", 2)
	if !fib.Remove("/a", 1) {
		t.Error("Remove existing entry reported false")
	}
	if fib.Remove("/a", 1) {
		t.Error("double Remove reported true")
	}
	if got := fib.NextHops("/a"); !reflect.DeepEqual(got, []FaceID{2}) {
		t.Errorf("NextHops = %v", got)
	}
	fib.Remove("/a", 2)
	if fib.Len() != 0 {
		t.Error("empty prefix not garbage collected")
	}
	fib.Add("/x", 1)
	if !fib.RemovePrefix("/x") || fib.RemovePrefix("/x") {
		t.Error("RemovePrefix misbehaves")
	}
}

// TestFIBLookupResultSurvivesUpdates pins the copy-on-write rule: Lookup
// hands out the stored slice, so a later Add or Remove on the same prefix
// must leave a slice handed out earlier exactly as it was.
func TestFIBLookupResultSurvivesUpdates(t *testing.T) {
	var fib FIB
	fib.Add("/a", 5)
	fib.Add("/a", 2)
	fib.Add("/a", 9)
	held, _, ok := fib.Lookup("/a/b")
	want := []FaceID{2, 5, 9}
	if !ok || !reflect.DeepEqual(held, want) {
		t.Fatalf("Lookup = %v, %v, want %v", held, ok, want)
	}
	fib.Add("/a", 1)
	fib.Add("/a", 7)
	fib.Remove("/a", 5)
	fib.Remove("/a", 2)
	if !reflect.DeepEqual(held, want) {
		t.Errorf("held Lookup result changed to %v after Add/Remove, want %v", held, want)
	}
	if got := fib.NextHops("/a"); !reflect.DeepEqual(got, []FaceID{1, 7, 9}) {
		t.Errorf("NextHops after updates = %v, want [1 7 9]", got)
	}
}

func TestFIBCanonicalForms(t *testing.T) {
	var fib FIB
	fib.Add("a/b", 1) // missing leading slash
	fib.Add("/c/", 2) // trailing slash
	if got := fib.NextHops("/a/b"); !reflect.DeepEqual(got, []FaceID{1}) {
		t.Errorf("canonicalized add failed: %v", got)
	}
	if got := fib.NextHops("/c"); !reflect.DeepEqual(got, []FaceID{2}) {
		t.Errorf("trailing slash not canonicalized: %v", got)
	}
	if !strings.Contains(fib.String(), "/a/b") {
		t.Error("String() should render prefixes")
	}
}

func TestPITAggregationAndConsume(t *testing.T) {
	var pit PIT
	t0 := time.Unix(0, 0)
	if !pit.Insert("/n", 1, t0, time.Second) {
		t.Error("first Insert should create entry")
	}
	if pit.Insert("/n", 2, t0.Add(10*time.Millisecond), time.Second) {
		t.Error("second Insert should aggregate")
	}
	faces := pit.Consume(nil, "/n", t0.Add(20*time.Millisecond))
	if !reflect.DeepEqual(faces, []FaceID{1, 2}) {
		t.Errorf("Consume = %v", faces)
	}
	if pit.Consume(nil, "/n", t0) != nil {
		t.Error("Consume after consume should return nil")
	}
}

func TestPITExpiry(t *testing.T) {
	var pit PIT
	t0 := time.Unix(0, 0)
	pit.Insert("/n", 1, t0, time.Second)
	// Expired entry yields no faces and a fresh Insert recreates it.
	if got := pit.Consume(nil, "/n", t0.Add(2*time.Second)); got != nil {
		t.Errorf("expired Consume = %v", got)
	}
	pit.Insert("/n", 1, t0, time.Second)
	if !pit.Insert("/n", 2, t0.Add(2*time.Second), time.Second) {
		t.Error("Insert after expiry should create a fresh entry")
	}
	pit.Insert("/m", 3, t0, time.Second)
	if n := pit.Expire(t0.Add(5 * time.Second)); n != 2 {
		t.Errorf("Expire dropped %d, want 2", n)
	}
	if pit.Len() != 0 {
		t.Errorf("Len = %d after Expire", pit.Len())
	}
}

func TestPITAggregationExtendsLifetime(t *testing.T) {
	var pit PIT
	t0 := time.Unix(0, 0)
	pit.Insert("/n", 1, t0, time.Second)
	pit.Insert("/n", 2, t0.Add(900*time.Millisecond), time.Second)
	// At t0+1.5s the original lifetime has passed but the refresh keeps it.
	faces := pit.Consume(nil, "/n", t0.Add(1500*time.Millisecond))
	if len(faces) != 2 {
		t.Errorf("faces = %v, want both after refresh", faces)
	}
}

// TestPITRecycledEntryStartsEmpty: an entry recycled by Consume must not
// carry the faces of the name it last served.
func TestPITRecycledEntryStartsEmpty(t *testing.T) {
	var pit PIT
	t0 := time.Unix(0, 0)
	pit.Insert("/a", 1, t0, time.Second)
	pit.Insert("/a", 2, t0, time.Second)
	if got := pit.Consume(nil, "/a", t0); !reflect.DeepEqual(got, []FaceID{1, 2}) {
		t.Fatalf("Consume(/a) = %v, want [1 2]", got)
	}
	pit.Insert("/b", 3, t0, time.Second)
	if got := pit.Consume(nil, "/b", t0); !reflect.DeepEqual(got, []FaceID{3}) {
		t.Errorf("Consume(/b) = %v, want [3]", got)
	}
}

// TestPITOverwritesExpiredEntryInPlace: Insert over an expired entry reuses
// it rather than leaving it to the GC, and keeps none of its faces.
func TestPITOverwritesExpiredEntryInPlace(t *testing.T) {
	var pit PIT
	now := time.Unix(0, 0)
	pit.Insert("/n", 1, now, time.Second)
	pit.Insert("/n", 2, now, time.Second)
	allocs := testing.AllocsPerRun(100, func() {
		now = now.Add(2 * time.Second)
		if !pit.Insert("/n", 3, now, time.Second) {
			t.Fatal("Insert over an expired entry aggregated")
		}
	})
	if allocs != 0 {
		t.Errorf("Insert over an expired entry = %v allocs, want 0", allocs)
	}
	if got := pit.Consume(nil, "/n", now); !reflect.DeepEqual(got, []FaceID{3}) {
		t.Errorf("Consume = %v, want [3]", got)
	}
}

// TestPITConsumedFacesSurviveInsert: the faces Consume hands out are the
// caller's, so a later Insert (which may reuse the entry) cannot rewrite
// them.
func TestPITConsumedFacesSurviveInsert(t *testing.T) {
	var pit PIT
	t0 := time.Unix(0, 0)
	pit.Insert("/a", 4, t0, time.Second)
	pit.Insert("/a", 5, t0, time.Second)
	got := pit.Consume(nil, "/a", t0)
	pit.Insert("/b", 6, t0, time.Second)
	pit.Insert("/b", 1, t0, time.Second)
	if !reflect.DeepEqual(got, []FaceID{4, 5}) {
		t.Errorf("faces after a later Insert = %v, want [4 5]", got)
	}
}

// TestEngineSteadyStateAllocs pins the per-object cost of the NDN path over
// a full 1 024-entry store in which every Data evicts: PIT Insert + Consume
// allocate nothing, Put copies into its victim's array and allocates nothing
// while no Get returned that array, a fresh copy when one did, and a whole
// miss-then-Data round through the engine allocates nothing.
func TestEngineSteadyStateAllocs(t *testing.T) {
	const capacity = 1024
	names := make([]string, 2*capacity)
	interests := make([]*wire.Packet, len(names))
	datas := make([]*wire.Packet, len(names))
	for i := range names {
		names[i] = fmt.Sprintf("/c/o%d", i)
		interests[i], datas[i] = interest(names[i]), data(names[i], "payload")
	}
	now := time.Unix(0, 0)
	payload := []byte("payload")

	var pit PIT
	var faces []FaceID
	next := 0
	pitRound := func() {
		n := names[next%len(names)]
		next++
		pit.Insert(n, 2, now, time.Second)
		pit.Insert(n, 1, now, time.Second)
		faces = pit.Consume(faces[:0], n, now)
	}
	pitRound()
	if got := testing.AllocsPerRun(1000, pitRound); got != 0 {
		t.Errorf("PIT Insert + Consume = %v allocs, want 0", got)
	}

	cs := NewContentStore(capacity, 0)
	for _, n := range names[:capacity] {
		cs.Put(n, payload, now)
	}
	next = capacity
	if got := testing.AllocsPerRun(1000, func() {
		cs.Put(names[next%len(names)], payload, now)
		next++
	}); got != 0 {
		t.Errorf("ContentStore.Put on a full store = %v allocs, want 0 (the victim's array)", got)
	}

	lent := NewContentStore(capacity, 0)
	next = 0
	lendRound := func() {
		n := names[next%len(names)]
		next++
		lent.Put(n, payload, now)
		if _, ok := lent.Get(n, now); !ok {
			t.Fatalf("Get(%q) missed right after Put", n)
		}
	}
	for range capacity {
		lendRound()
	}
	if got := testing.AllocsPerRun(1000, lendRound); got != 1 {
		t.Errorf("Put + Get on a full store of lent entries = %v allocs, want 1 (a fresh copy)", got)
	}

	e := NewEngine(WithContentStore(capacity, 0), WithInterestLifetime(time.Second))
	e.FIB().Add("/c", 9)
	var sink SliceSink
	next = 0
	engineRound := func() {
		i := next % len(names)
		next++
		sink.Reset()
		e.HandleInterestTo(now, 1, interests[i], &sink)
		e.HandleDataTo(now, 9, datas[i], &sink)
		if len(sink.Actions) != 2 {
			t.Fatalf("round %d emitted %d actions, want 2", i, len(sink.Actions))
		}
	}
	for range capacity {
		engineRound()
	}
	if got := testing.AllocsPerRun(1000, engineRound); got != 0 {
		t.Errorf("HandleInterestTo + HandleDataTo = %v allocs, want 0 (the copy reuses the victim's array)", got)
	}
	if e.Store().Len() != capacity {
		t.Errorf("store holds %d entries, want %d", e.Store().Len(), capacity)
	}
}

func TestContentStoreLRU(t *testing.T) {
	cs := NewContentStore(2, 0)
	t0 := time.Unix(0, 0)
	cs.Put("/a", []byte("A"), t0)
	cs.Put("/b", []byte("B"), t0)
	if _, ok := cs.Get("/a", t0); !ok { // touch /a so /b becomes LRU
		t.Fatal("missing /a")
	}
	cs.Put("/c", []byte("C"), t0)
	if _, ok := cs.Get("/b", t0); ok {
		t.Error("/b should have been evicted")
	}
	if v, ok := cs.Get("/a", t0); !ok || string(v) != "A" {
		t.Error("/a lost")
	}
	if v, ok := cs.Get("/c", t0); !ok || string(v) != "C" {
		t.Error("/c lost")
	}
	hits, misses := cs.Stats()
	if hits != 3 || misses != 1 {
		t.Errorf("stats = %d hits %d misses", hits, misses)
	}
}

func TestContentStoreFreshness(t *testing.T) {
	cs := NewContentStore(10, 100*time.Millisecond)
	t0 := time.Unix(0, 0)
	cs.Put("/a", []byte("A"), t0)
	if _, ok := cs.Get("/a", t0.Add(50*time.Millisecond)); !ok {
		t.Error("fresh content missed")
	}
	if _, ok := cs.Get("/a", t0.Add(200*time.Millisecond)); ok {
		t.Error("stale content served")
	}
	if cs.Len() != 0 {
		t.Error("stale entry not evicted")
	}
}

func TestContentStoreUpdateExisting(t *testing.T) {
	cs := NewContentStore(2, 0)
	t0 := time.Unix(0, 0)
	cs.Put("/a", []byte("v1"), t0)
	cs.Put("/a", []byte("v2"), t0.Add(time.Millisecond))
	if cs.Len() != 1 {
		t.Errorf("Len = %d", cs.Len())
	}
	if v, _ := cs.Get("/a", t0.Add(time.Millisecond)); string(v) != "v2" {
		t.Errorf("Get = %q", v)
	}
}

// TestContentStorePutLeavesHandedOutPayload is the regression test for Put
// rewriting an entry in place: Get's slice rides out on an emitted Data
// packet, so replacing the entry must not change it.
func TestContentStorePutLeavesHandedOutPayload(t *testing.T) {
	cs := NewContentStore(2, 0)
	t0 := time.Unix(0, 0)
	cs.Put("/a", []byte("first"), t0)
	held, ok := cs.Get("/a", t0)
	if !ok {
		t.Fatal("Get missed")
	}
	cs.Put("/a", []byte("other"), t0)
	if string(held) != "first" {
		t.Errorf("slice handed out by Get now reads %q, want %q", held, "first")
	}
	if v, _ := cs.Get("/a", t0); string(v) != "other" {
		t.Errorf("Get after replace = %q, want %q", v, "other")
	}
}

func TestContentStoreDisabled(t *testing.T) {
	cs := NewContentStore(0, 0)
	cs.Put("/a", []byte("A"), time.Unix(0, 0))
	if _, ok := cs.Get("/a", time.Unix(0, 0)); ok {
		t.Error("disabled store should never hit")
	}
}

func interest(name string) *wire.Packet {
	return &wire.Packet{Type: wire.TypeInterest, Name: name}
}

func data(name, payload string) *wire.Packet {
	return &wire.Packet{Type: wire.TypeData, Name: name, Payload: []byte(payload)}
}

// handle runs one packet through the engine and returns the actions it
// emitted (nil when there were none).
func handle(e *Engine, now time.Time, from FaceID, pkt *wire.Packet) []Action {
	var sink SliceSink
	e.HandleTo(now, from, pkt, &sink)
	return sink.Actions
}

func TestEngineInterestDataFlow(t *testing.T) {
	e := NewEngine()
	e.FIB().Add("/content", 9) // upstream face
	t0 := time.Unix(0, 0)

	// Interest from face 1 is forwarded upstream.
	in := interest("/content/x")
	acts := handle(e, t0, 1, in)
	if len(acts) != 1 || acts[0].Face != 9 {
		t.Fatalf("forwarding actions = %+v", acts)
	}
	if acts[0].Packet != in {
		t.Errorf("forwarded %p, want the received Interest %p itself", acts[0].Packet, in)
	}

	// A second Interest from face 2 aggregates (no forwarding).
	if acts := handle(e, t0, 2, interest("/content/x")); acts != nil {
		t.Fatalf("aggregated interest produced actions: %+v", acts)
	}

	// Data from upstream fans out to both waiting faces.
	acts = handle(e, t0, 9, data("/content/x", "payload"))
	if len(acts) != 2 {
		t.Fatalf("data actions = %+v", acts)
	}
	gotFaces := []FaceID{acts[0].Face, acts[1].Face}
	if !reflect.DeepEqual(gotFaces, []FaceID{1, 2}) {
		t.Errorf("data faces = %v", gotFaces)
	}

	// The content is now cached: a new Interest is answered locally.
	acts = handle(e, t0, 3, interest("/content/x"))
	if len(acts) != 1 || acts[0].Face != 3 || acts[0].Packet.Type != wire.TypeData {
		t.Fatalf("cache hit actions = %+v", acts)
	}
	if string(acts[0].Packet.Payload) != "payload" {
		t.Errorf("cached payload = %q", acts[0].Packet.Payload)
	}

	st := e.Stats()
	if st.CacheHits != 1 || st.InterestsAggregated != 1 || st.InterestsForwarded != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEngineDropsWithoutRoute(t *testing.T) {
	e := NewEngine()
	if acts := handle(e, time.Unix(0, 0), 1, interest("/nowhere")); acts != nil {
		t.Errorf("actions = %+v", acts)
	}
	if e.Stats().InterestsDropped != 1 {
		t.Errorf("stats = %+v", e.Stats())
	}
}

func TestEngineDoesNotForwardBackToArrivalFace(t *testing.T) {
	e := NewEngine()
	e.FIB().Add("/c", 1)
	if acts := handle(e, time.Unix(0, 0), 1, interest("/c/x")); acts != nil {
		t.Errorf("interest echoed to arrival face: %+v", acts)
	}
}

func TestEngineUnsolicitedData(t *testing.T) {
	e := NewEngine()
	if acts := handle(e, time.Unix(0, 0), 1, data("/x", "p")); acts != nil {
		t.Errorf("unsolicited data forwarded: %+v", acts)
	}
	if e.Stats().DataUnsolicited != 1 {
		t.Errorf("stats = %+v", e.Stats())
	}
	// Unsolicited data must not be cached either (no cache hit afterwards).
	e.FIB().Add("/x", 9)
	acts := handle(e, time.Unix(0, 0), 2, interest("/x"))
	if len(acts) != 1 || acts[0].Packet.Type != wire.TypeInterest {
		t.Errorf("interest after unsolicited data = %+v", acts)
	}
}

func TestEngineHandleDispatch(t *testing.T) {
	e := NewEngine()
	e.FIB().Add("/c", 9)
	t0 := time.Unix(0, 0)
	if acts := handle(e, t0, 1, interest("/c/x")); len(acts) != 1 {
		t.Errorf("Handle(Interest) = %+v", acts)
	}
	sub := &wire.Packet{Type: wire.TypeSubscribe}
	if acts := handle(e, t0, 1, sub); acts != nil {
		t.Errorf("Handle(Subscribe) should be ignored by NDN engine: %+v", acts)
	}
}

func TestEngineExpire(t *testing.T) {
	e := NewEngine(WithInterestLifetime(time.Second), WithContentStore(16, 0))
	e.FIB().Add("/c", 9)
	t0 := time.Unix(0, 0)
	handle(e, t0, 1, interest("/c/x"))
	if e.PendingInterests() != 1 {
		t.Fatal("missing PIT entry")
	}
	if n := e.Expire(t0.Add(2 * time.Second)); n != 1 {
		t.Errorf("Expire = %d", n)
	}
	// Data after expiry is unsolicited.
	if acts := handle(e, t0.Add(3*time.Second), 9, data("/c/x", "p")); acts != nil {
		t.Errorf("expired data forwarded: %+v", acts)
	}
}

func TestQuickFIBLookupMatchesReference(t *testing.T) {
	// Compare FIB LPM against a naive reference implementation.
	type entry struct {
		Prefix string
		Face   uint8
	}
	f := func(entries [12]entry, probeRaw [3]uint8) bool {
		var fib FIB
		type refEntry struct {
			comps []string
			face  FaceID
		}
		var ref []refEntry
		mkPrefix := func(raw string) []string {
			// Derive up to 3 components from the string's bytes.
			var comps []string
			for i := 0; i < len(raw) && i < 3; i++ {
				comps = append(comps, fmt.Sprintf("c%d", raw[i]%4))
			}
			return comps
		}
		for _, e := range entries {
			comps := mkPrefix(e.Prefix)
			name := "/" + strings.Join(comps, "/")
			if len(comps) == 0 {
				name = "/"
			}
			fib.Add(name, FaceID(e.Face%8))
			ref = append(ref, refEntry{comps: comps, face: FaceID(e.Face % 8)})
		}
		var probe []string
		for _, b := range probeRaw {
			probe = append(probe, fmt.Sprintf("c%d", b%4))
		}
		probeName := "/" + strings.Join(probe, "/")

		// Reference: longest matching component prefix.
		best := -1
		for _, e := range ref {
			if len(e.comps) > len(probe) {
				continue
			}
			match := true
			for i := range e.comps {
				if e.comps[i] != probe[i] {
					match = false
					break
				}
			}
			if match && len(e.comps) > best {
				best = len(e.comps)
			}
		}
		wantFaces := map[FaceID]struct{}{}
		for _, e := range ref {
			if len(e.comps) == best {
				match := best <= len(probe)
				for i := 0; i < best && match; i++ {
					if e.comps[i] != probe[i] {
						match = false
					}
				}
				if match {
					wantFaces[e.face] = struct{}{}
				}
			}
		}
		faces, _, ok := fib.Lookup(probeName)
		if best < 0 {
			return !ok
		}
		if !ok || len(faces) != len(wantFaces) {
			return false
		}
		for _, f := range faces {
			if _, present := wantFaces[f]; !present {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkFIBLookup(b *testing.B) {
	var fib FIB
	for r := 1; r <= 5; r++ {
		for z := 1; z <= 5; z++ {
			fib.Add(fmt.Sprintf("/rp%d/%d/%d", r%3, r, z), FaceID(r))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fib.Lookup("/rp1/3/4/obj12")
	}
}

func BenchmarkEngineInterest(b *testing.B) {
	e := NewEngine(WithContentStore(0, 0))
	e.FIB().Add("/c", 9)
	t0 := time.Unix(0, 0)
	pkt := interest("/c/x")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt.Name = fmt.Sprintf("/c/x%d", i) // avoid PIT aggregation
		handle(e, t0, 1, pkt)
	}
}
