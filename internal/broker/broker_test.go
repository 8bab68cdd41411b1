package broker

import (
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/flowctl"
	"github.com/icn-gaming/gcopss/internal/obs"
	"github.com/icn-gaming/gcopss/internal/wire"
)

func update(leaf string, objID string, size int) *wire.Packet {
	return &wire.Packet{
		Type:    wire.TypeMulticast,
		CDs:     []cd.CD{cd.MustParse(leaf)},
		Origin:  "p1",
		Payload: EncodeUpdate(objID, make([]byte, size)),
	}
}

func newTestBroker() *Broker {
	return New("b1", []cd.CD{cd.MustParse("/1/1"), cd.MustParse("/1/")}, WithDecay(0.95))
}

func TestNamespaceHelpers(t *testing.T) {
	leaf := cd.MustParse("/1/")
	if got := CtlCD(leaf); got != cd.MustParse("/snapctl/1/") {
		t.Errorf("CtlCD = %v", got)
	}
	if got := DataCD(leaf); got != cd.MustParse("/snapdata/1/") {
		t.Errorf("DataCD = %v", got)
	}
	back, ok := LeafOfDataCD(cd.MustParse("/snapdata/1/"))
	if !ok || back != leaf {
		t.Errorf("LeafOfDataCD = %v %v", back, ok)
	}
	if _, ok := LeafOfDataCD(cd.MustParse("/other/1")); ok {
		t.Error("wrong namespace accepted")
	}
	if got := ObjectName(cd.MustParse("/1/1"), "obj3"); got != "/snapshot/1/1/obj3" {
		t.Errorf("ObjectName = %q", got)
	}
	if got := ManifestName(cd.MustParse("/1/")); got != "/snapshot/1//_manifest" {
		t.Errorf("ManifestName = %q", got)
	}
}

func TestUpdateCodec(t *testing.T) {
	payload := EncodeUpdate("obj7", []byte("move north"))
	id, body, ok := DecodeUpdate(payload)
	if !ok || id != "obj7" || string(body) != "move north" {
		t.Errorf("DecodeUpdate = %q %q %v", id, body, ok)
	}
	if _, _, ok := DecodeUpdate([]byte("no-newline")); ok {
		t.Error("malformed update accepted")
	}
}

func TestBrokerSnapshotMaintenance(t *testing.T) {
	b := newTestBroker()
	if got := b.SubscriptionCDs(); len(got) != 4 { // 2 leaves + 2 ctl channels
		t.Errorf("SubscriptionCDs = %v", got)
	}
	if !b.Serves(cd.MustParse("/1/1")) || b.Serves(cd.MustParse("/2/2")) {
		t.Error("Serves misreports")
	}

	// Updates to a served leaf evolve the snapshot per Eq. 1.
	b.HandlePacket(update("/1/1", "objA", 100))
	b.HandlePacket(update("/1/1", "objA", 100))
	want := 0.95*100 + 100
	if got := b.SnapshotSize(cd.MustParse("/1/1")); got != want {
		t.Errorf("SnapshotSize = %f, want %f", got, want)
	}
	// Updates to unserved leaves are ignored.
	b.HandlePacket(update("/2/2", "objB", 100))
	if got := b.SnapshotSize(cd.MustParse("/2/2")); got != 0 {
		t.Errorf("unserved snapshot grew: %f", got)
	}
	if updates, _, _ := b.Stats(); updates != 2 {
		t.Errorf("updatesApplied = %d", updates)
	}
	// Malformed payloads are skipped.
	b.HandlePacket(&wire.Packet{Type: wire.TypeMulticast, CDs: []cd.CD{cd.MustParse("/1/1")}, Payload: []byte("junk")})
	if updates, _, _ := b.Stats(); updates != 2 {
		t.Error("malformed update applied")
	}
}

func TestBrokerQRInterests(t *testing.T) {
	b := newTestBroker()
	b.HandlePacket(update("/1/1", "objA", 100))
	b.HandlePacket(update("/1/1", "objB", 50))

	// Manifest lists the two changed objects with sizes.
	out := b.HandlePacket(&wire.Packet{Type: wire.TypeInterest, Name: ManifestName(cd.MustParse("/1/1"))})
	if len(out) != 1 || out[0].Type != wire.TypeData {
		t.Fatalf("manifest response = %+v", out)
	}
	manifest := ParseManifest(out[0].Payload)
	if len(manifest) != 2 || manifest["objA"] != 100 || manifest["objB"] != 50 {
		t.Errorf("manifest = %v", manifest)
	}

	// Object fetch returns a payload of the snapshot size.
	out = b.HandlePacket(&wire.Packet{Type: wire.TypeInterest, Name: ObjectName(cd.MustParse("/1/1"), "objA")})
	if len(out) != 1 {
		t.Fatal("no object response")
	}
	id, version, _, ok := ParseObject(out[0].Payload)
	if !ok || id != "objA" || version != 1 {
		t.Errorf("object = %q v%d %v", id, version, ok)
	}
	if len(out[0].Payload) < 100 {
		t.Errorf("object payload %d bytes, want ≥ snapshot size", len(out[0].Payload))
	}

	// Unknown objects answer with a version-0 snapshot.
	out = b.HandlePacket(&wire.Packet{Type: wire.TypeInterest, Name: ObjectName(cd.MustParse("/1/1"), "ghost")})
	if len(out) != 1 {
		t.Fatal("no response for unknown object")
	}
	if _, v, _, ok := ParseObject(out[0].Payload); !ok || v != 0 {
		t.Error("unknown object should answer version 0")
	}

	// Queries outside the serving set are ignored.
	if out := b.HandlePacket(&wire.Packet{Type: wire.TypeInterest, Name: ObjectName(cd.MustParse("/2/2"), "objA")}); out != nil {
		t.Error("unserved leaf answered")
	}
	if out := b.HandlePacket(&wire.Packet{Type: wire.TypeInterest, Name: "/other/name"}); out != nil {
		t.Error("foreign namespace answered")
	}
}

// TestObjectEncodedOncePerVersion pins the broker's encoding cache: replies
// for an unchanged object share one payload array and cost only reply's
// record, and an update leaves a payload already handed out intact while the
// next reply carries the new version.
func TestObjectEncodedOncePerVersion(t *testing.T) {
	b := newTestBroker()
	leaf := cd.MustParse("/1/1")
	b.HandlePacket(update("/1/1", "objA", 100))
	q := &wire.Packet{Type: wire.TypeInterest, Name: ObjectName(leaf, "objA")}
	first := b.HandlePacket(q)[0].Payload
	second := b.HandlePacket(q)[0].Payload
	if &first[0] != &second[0] || cap(first) != len(first) {
		t.Fatalf("two replies for version 1 do not share one clipped array (cap %d, len %d)", cap(first), len(first))
	}
	if got := testing.AllocsPerRun(100, func() { b.HandlePacket(q) }); got != 1 {
		t.Errorf("object reply = %v allocs, want 1 (reply's record)", got)
	}
	held := append([]byte(nil), first...)

	b.applyUpdate(leaf, "objA", 100)
	if string(first) != string(held) {
		t.Errorf("update rewrote a payload already sent: %q, was %q", first, held)
	}
	next := b.HandlePacket(q)[0].Payload
	if _, v, _, ok := ParseObject(next); !ok || v != 2 || len(next) < 195 {
		t.Errorf("reply after update = version %d (%v), %d bytes; want version 2, ≥ 195 bytes", v, ok, len(next))
	}
}

func TestQRFetchPipelines(t *testing.T) {
	b := newTestBroker()
	leaf := cd.MustParse("/1/1")
	for i := 0; i < 10; i++ {
		b.HandlePacket(update("/1/1", "obj"+string(rune('A'+i)), 60+i))
	}

	// Static pins the pipeline at 3 so the round count below is exact.
	f := NewFetch(leaf, flowctl.Static(), flowctl.WithWindow(3, 3, 3))
	t0 := time.Unix(0, 0)
	queue := f.StartAt(t0)
	rounds := 0
	for len(queue) > 0 && !f.Done() {
		rounds++
		if rounds > 100 {
			t.Fatal("fetch did not terminate")
		}
		var next []*wire.Packet
		for _, pkt := range queue {
			for _, resp := range b.HandlePacket(pkt) {
				follow, _ := f.HandleDataAt(t0, resp)
				next = append(next, follow...)
			}
		}
		queue = next
	}
	if !f.Done() || f.Received() != 10 {
		t.Errorf("fetch done=%v received=%d", f.Done(), f.Received())
	}
	// The window was respected: with 10 objects and window 3 the pipeline
	// refilled over ≥ 4 exchanges (manifest + ceil(10/3)).
	if rounds < 4 {
		t.Errorf("rounds = %d, pipeline window not exercised", rounds)
	}
}

func TestQRFetchEmptyArea(t *testing.T) {
	b := newTestBroker()
	f := NewFetch(cd.MustParse("/1/"))
	t0 := time.Unix(0, 0)
	resp := b.HandlePacket(f.StartAt(t0)[0])
	if len(resp) != 1 {
		t.Fatal("no manifest")
	}
	_, done := f.HandleDataAt(t0, resp[0])
	if !done || !f.Done() || f.Received() != 0 {
		t.Error("empty area should complete immediately")
	}
}

func TestCyclicSessionLifecycle(t *testing.T) {
	b := newTestBroker()
	leaf := cd.MustParse("/1/1")
	b.HandlePacket(update("/1/1", "objA", 100))
	b.HandlePacket(update("/1/1", "objB", 50))

	// No session: ticks emit nothing.
	if got := b.Tick(); got != nil {
		t.Errorf("idle Tick = %v", got)
	}

	f := NewCyclicFetch(leaf, "mover1")
	start := f.Start()
	if len(start) != 2 || start[0].Type != wire.TypeSubscribe || start[1].Type != wire.TypeMulticast {
		t.Fatalf("Start = %+v", start)
	}
	// Deliver the session-start control to the broker; it answers with a
	// manifest on the data channel.
	resp := b.HandlePacket(start[1])
	if len(resp) != 1 {
		t.Fatal("no manifest on session start")
	}
	if _, done := f.HandleMulticast(resp[0]); done {
		t.Fatal("done before any objects")
	}
	if got := b.ActiveSessions(); len(got) != 1 {
		t.Errorf("ActiveSessions = %v", got)
	}

	// Two ticks deliver the two objects; the fetch completes and the stop
	// control closes the session.
	var finish []*wire.Packet
	for i := 0; i < 5 && !f.Done(); i++ {
		for _, pkt := range b.Tick() {
			out, _ := f.HandleMulticast(pkt)
			finish = append(finish, out...)
		}
	}
	if !f.Done() || f.Received() != 2 {
		t.Fatalf("cyclic fetch done=%v received=%d", f.Done(), f.Received())
	}
	if len(finish) != 2 || finish[0].Type != wire.TypeUnsubscribe {
		t.Fatalf("finish = %+v", finish)
	}
	b.HandlePacket(finish[1])
	if got := b.ActiveSessions(); len(got) != 0 {
		t.Errorf("session not closed: %v", got)
	}
	if got := b.Tick(); got != nil {
		t.Error("Tick after close emitted packets")
	}
}

func TestCyclicSessionSharing(t *testing.T) {
	b := newTestBroker()
	leaf := cd.MustParse("/1/1")
	b.HandlePacket(update("/1/1", "objA", 100))

	f1 := NewCyclicFetch(leaf, "m1")
	f2 := NewCyclicFetch(leaf, "m2")
	b.HandlePacket(f1.Start()[1])
	b.HandlePacket(f2.Start()[1])
	if got := b.ActiveSessions(); len(got) != 1 {
		t.Fatalf("sessions = %v, want 1 shared", got)
	}
	// First stop keeps the session; second closes it.
	b.HandlePacket(&wire.Packet{Type: wire.TypeMulticast, CDs: []cd.CD{CtlCD(leaf)}, Origin: "m1", Payload: []byte("stop")})
	if len(b.ActiveSessions()) != 1 {
		t.Error("session closed with a subscriber left")
	}
	b.HandlePacket(&wire.Packet{Type: wire.TypeMulticast, CDs: []cd.CD{CtlCD(leaf)}, Origin: "m2", Payload: []byte("stop")})
	if len(b.ActiveSessions()) != 0 {
		t.Error("session not closed")
	}
}

func TestSessionAdvertisedWindowPacesRotation(t *testing.T) {
	b := newTestBroker()
	leaf := cd.MustParse("/1/1")
	for i := 0; i < 6; i++ {
		b.HandlePacket(update("/1/1", "obj"+string(rune('A'+i)), 10))
	}
	f := NewCyclicFetch(leaf, "m", flowctl.WithAdvertisedWindow(2))
	b.HandlePacket(f.Start()[1])
	// The mover advertised 2 objects per delivery tick: each Tick emits
	// exactly that, not the whole six-object rotation.
	for i := 0; i < 3; i++ {
		if got := len(b.Tick()); got != 2 {
			t.Fatalf("Tick %d emitted %d objects, want the advertised 2", i, got)
		}
	}
}

func TestSessionSlowestMoverSetsPace(t *testing.T) {
	b := newTestBroker()
	leaf := cd.MustParse("/1/1")
	for i := 0; i < 8; i++ {
		b.HandlePacket(update("/1/1", "obj"+string(rune('A'+i)), 10))
	}
	fast := NewCyclicFetch(leaf, "fast", flowctl.WithAdvertisedWindow(8))
	slow := NewCyclicFetch(leaf, "slow", flowctl.WithAdvertisedWindow(2))
	b.HandlePacket(fast.Start()[1])
	b.HandlePacket(slow.Start()[1])
	if got := len(b.Tick()); got != 2 {
		t.Fatalf("Tick emitted %d objects, want the slowest mover's 2", got)
	}
	// The slow mover leaves; its advertisement must leave with it, so the
	// session speeds back up to the remaining subscriber's window.
	b.HandlePacket(&wire.Packet{Type: wire.TypeMulticast, CDs: []cd.CD{CtlCD(leaf)}, Origin: "slow", Payload: []byte("stop")})
	if got := len(b.Tick()); got != 8 {
		t.Fatalf("Tick after slow mover left emitted %d objects, want 8", got)
	}
}

func TestSessionLegacyPaceWithoutAdvertisement(t *testing.T) {
	b := newTestBroker()
	leaf := cd.MustParse("/1/1")
	b.HandlePacket(update("/1/1", "objA", 10))
	b.HandlePacket(update("/1/1", "objB", 10))
	// A start control with no AdvWin TLV (a pre-flowctl mover): the session
	// falls back to the legacy one object per pacing tick.
	b.HandlePacket(&wire.Packet{Type: wire.TypeMulticast, CDs: []cd.CD{CtlCD(leaf)}, Origin: "old", Payload: []byte("start")})
	if got := len(b.Tick()); got != 1 {
		t.Fatalf("Tick emitted %d objects, want the legacy 1", got)
	}
}

func TestCyclicPicksUpNewObjects(t *testing.T) {
	b := newTestBroker()
	leaf := cd.MustParse("/1/1")
	b.HandlePacket(update("/1/1", "objA", 10))
	f := NewCyclicFetch(leaf, "m")
	b.HandlePacket(f.Start()[1])
	// A new object arrives mid-session; the rotation must include it.
	b.HandlePacket(update("/1/1", "objB", 20))
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		for _, pkt := range b.Tick() {
			if id, _, _, ok := ParseObject(pkt.Payload); ok && id != "" {
				seen[id] = true
			}
		}
	}
	if !seen["objA"] || !seen["objB"] {
		t.Errorf("rotation missed objects: %v", seen)
	}
}

func TestParseObjectEdgeCases(t *testing.T) {
	if _, _, _, ok := ParseObject([]byte("garbage")); ok {
		t.Error("garbage parsed")
	}
	if _, _, _, ok := ParseObject([]byte("obj:id-only")); ok {
		t.Error("short object parsed")
	}
	if _, _, n, ok := ParseObject([]byte("manifest:17")); !ok || n != 17 {
		t.Error("manifest parse failed")
	}
	if _, _, _, ok := ParseObject([]byte("manifest:x")); ok {
		t.Error("bad manifest parsed")
	}
	if _, _, _, ok := ParseObject([]byte("obj:a:notanumber:")); ok {
		t.Error("bad version parsed")
	}
	// Exact results on malformed input, including obj::1: (accepted with an
	// empty id, which HandleDataAt refuses).
	for _, c := range []struct {
		in                string
		id                string
		version, manifest int
		ok                bool
	}{
		{"obj:x", "", 0, -1, false},
		{"obj:x:", "", 0, -1, false},
		{"obj::1:", "", 1, -1, true},
		{"obj:a:notanumber:", "", 0, -1, false},
		{"obj:a:+3:tail:more", "a", 3, -1, true},
		{"manifest:", "", 0, 0, false},
		{"manifest:x", "", 0, 0, false},
		{"manifest:99999999999999999999", "", 0, 0, false},
		{"manifest:-2", "", 0, -2, true},
		{"", "", 0, -1, false},
	} {
		id, version, manifest, ok := ParseObject([]byte(c.in))
		if id != c.id || version != c.version || manifest != c.manifest || ok != c.ok {
			t.Errorf("ParseObject(%q) = %q %d %d %v, want %q %d %d %v",
				c.in, id, version, manifest, ok, c.id, c.version, c.manifest, c.ok)
		}
	}
	m := ParseManifest([]byte("a:10\nb:20\n\nbad\nbadnum:x"))
	if len(m) != 2 || m["a"] != 10 || m["b"] != 20 {
		t.Errorf("ParseManifest = %v", m)
	}
}

func TestSessionCtlIgnoresUnserved(t *testing.T) {
	b := newTestBroker()
	if out := b.HandlePacket(&wire.Packet{
		Type: wire.TypeMulticast, CDs: []cd.CD{CtlCD(cd.MustParse("/9/9"))},
		Origin: "m", Payload: []byte("start"),
	}); out != nil {
		t.Error("unserved session started")
	}
	// Stop without start is a no-op.
	if out := b.HandlePacket(&wire.Packet{
		Type: wire.TypeMulticast, CDs: []cd.CD{CtlCD(cd.MustParse("/1/1"))},
		Origin: "m", Payload: []byte("stop"),
	}); out != nil {
		t.Error("phantom stop produced packets")
	}
}

func TestBrokerOptions(t *testing.T) {
	// Out-of-range decay falls back to the default, same as no option.
	def := New("b1", []cd.CD{cd.MustParse("/1/1")})
	bad := New("b2", []cd.CD{cd.MustParse("/1/1")}, WithDecay(1.5))
	if def.decay != bad.decay {
		t.Errorf("out-of-range decay %v != default %v", bad.decay, def.decay)
	}
	set := New("b3", []cd.CD{cd.MustParse("/1/1")}, WithDecay(0.5))
	if set.decay != 0.5 {
		t.Errorf("decay = %v, want 0.5", set.decay)
	}
	reg := obs.NewRegistry()
	b := New("b4", []cd.CD{cd.MustParse("/1/1")}, WithRegistry(reg))
	b.HandlePacket(update("/1/1", "obj1", 10))
	if got := reg.Counter("broker.updates_applied").Value(); got != 1 {
		t.Errorf("updates_applied on injected registry = %d, want 1", got)
	}
}
