package gcopss

import (
	"fmt"
	"testing"

	"github.com/icn-gaming/gcopss/internal/broker"
	"github.com/icn-gaming/gcopss/internal/ndn"
)

// smallNet builds a 3-router fabric with an RP, over the 5×5 map.
func smallNet(t *testing.T) *Network {
	t.Helper()
	n, err := New(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"R1", "R2", "R3"} {
		if err := n.AddRouter(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Link("R1", "R2"); err != nil {
		t.Fatal(err)
	}
	if err := n.Link("R2", "R3"); err != nil {
		t.Fatal(err)
	}
	if err := n.StartRP("R1", "/rp1"); err != nil {
		t.Fatal(err)
	}
	return n
}

// recv drains one update without blocking the test forever.
func recv(t *testing.T, p *Player) Update {
	t.Helper()
	select {
	case u, ok := <-p.Updates():
		if !ok {
			t.Fatal("updates channel closed")
		}
		return u
	default:
		t.Fatalf("player %s has no pending update", p.ID())
		return Update{}
	}
}

func expectNone(t *testing.T, p *Player) {
	t.Helper()
	select {
	case u := <-p.Updates():
		t.Fatalf("player %s unexpectedly received %+v", p.ID(), u)
	default:
	}
}

func TestHierarchicalVisibility(t *testing.T) {
	n := smallNet(t)
	defer n.Close()

	soldier, err := n.Join("soldier", "R3", "/1/2")
	if err != nil {
		t.Fatal(err)
	}
	plane, err := n.Join("plane", "R2", "/1")
	if err != nil {
		t.Fatal(err)
	}
	sat, err := n.Join("sat", "R1", "/")
	if err != nil {
		t.Fatal(err)
	}

	// Soldier publishes in the zone: plane and satellite see it.
	if err := soldier.Publish("flag", []byte("captured")); err != nil {
		t.Fatal(err)
	}
	u := recv(t, plane)
	if u.Origin != "soldier" || u.CD != "/1/2" || u.ObjectID != "flag" || string(u.Data) != "captured" {
		t.Errorf("plane got %+v", u)
	}
	recv(t, sat)
	expectNone(t, soldier) // own update filtered out

	// Plane publishes over region 1: soldier and satellite see it.
	if err := plane.Publish("bomb", []byte("dropped")); err != nil {
		t.Fatal(err)
	}
	if u := recv(t, soldier); u.CD != "/1/" {
		t.Errorf("soldier got %+v", u)
	}
	recv(t, sat)

	// Satellite publishes at the top: everyone sees it.
	if err := sat.Publish("scan", []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if u := recv(t, soldier); u.CD != "/" {
		t.Errorf("soldier got %+v", u)
	}
	recv(t, plane)

	// A second soldier in a sibling zone is invisible to the first.
	other, err := n.Join("other", "R1", "/1/3")
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Publish("mine", []byte("planted")); err != nil {
		t.Fatal(err)
	}
	expectNone(t, soldier)
	recv(t, plane) // the plane sees all of region 1
}

func TestPublishTo(t *testing.T) {
	n := smallNet(t)
	defer n.Close()
	soldier, _ := n.Join("soldier", "R3", "/1/2")
	gunner, _ := n.Join("gunner", "R2", "/1/2")
	// The gunner shoots at a plane overhead: publishes to the region
	// airspace, which both zone players see.
	if err := gunner.PublishTo("/1", "aa-gun", []byte("fired")); err != nil {
		t.Fatal(err)
	}
	if u := recv(t, soldier); u.CD != "/1/" || u.ObjectID != "aa-gun" {
		t.Errorf("soldier got %+v", u)
	}
	if _, err := n.Join("dup", "R1", "/9/9"); err == nil {
		t.Error("bad area accepted")
	}
	if err := gunner.PublishTo("/9/9", "x", nil); err == nil {
		t.Error("PublishTo bad area accepted")
	}
}

func TestMoveToResubscribes(t *testing.T) {
	n := smallNet(t)
	defer n.Close()
	mover, _ := n.Join("mover", "R3", "/1/1")
	talker, _ := n.Join("talker", "R1", "/2/3")

	// Before the move the mover cannot see zone 2/3.
	talker.Publish("rock", []byte("moved")) //nolint:errcheck
	expectNone(t, mover)

	rep, err := mover.MoveTo("/2/3", 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Type != "to a different zone [different region]" {
		t.Errorf("move type = %q", rep.Type)
	}
	if rep.SnapshotAreas != 2 {
		t.Errorf("snapshot areas = %d, want 2", rep.SnapshotAreas)
	}
	if mover.Area() != "/2/3" {
		t.Errorf("area = %q", mover.Area())
	}

	// Now the update flows; the old zone is silent.
	talker.Publish("rock", []byte("again")) //nolint:errcheck
	if u := recv(t, mover); u.Origin != "talker" {
		t.Errorf("mover got %+v", u)
	}
	stayer, _ := n.Join("stayer", "R2", "/1/1")
	stayer.Publish("tree", []byte("fell")) //nolint:errcheck
	expectNone(t, mover)
}

func TestMoveToFetchesSnapshotsQR(t *testing.T) {
	n := smallNet(t)
	defer n.Close()
	if err := n.AttachBroker("R1", "broker1"); err != nil {
		t.Fatal(err)
	}
	builder, _ := n.Join("builder", "R1", "/2/3")
	for i := 0; i < 5; i++ {
		builder.Publish(fmt.Sprintf("wall%d", i), []byte("built-brick-by-brick")) //nolint:errcheck
	}
	mover, _ := n.Join("mover", "R3", "/1/1")
	rep, err := mover.MoveTo("/2/3", SnapshotQueryResponse)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Objects != 5 {
		t.Errorf("objects fetched = %d, want 5 (the walls built in /2/3)", rep.Objects)
	}
}

func TestMoveToFetchesSnapshotsCyclic(t *testing.T) {
	n := smallNet(t)
	defer n.Close()
	if err := n.AttachBroker("R2", "broker1"); err != nil {
		t.Fatal(err)
	}
	builder, _ := n.Join("builder", "R1", "/3/2")
	for i := 0; i < 4; i++ {
		builder.Publish(fmt.Sprintf("tower%d", i), []byte("stone")) //nolint:errcheck
	}
	mover, _ := n.Join("mover", "R3", "/3/1")
	rep, err := mover.MoveTo("/3/2", SnapshotCyclic)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Objects != 4 {
		t.Errorf("objects fetched = %d, want 4", rep.Objects)
	}
	// The session must be closed after the fetch.
	routers, players, brokers, _ := n.Stats()
	if routers != 3 || players != 2 || brokers != 1 {
		t.Errorf("stats = %d %d %d", routers, players, brokers)
	}
}

func TestMoveDescendingNeedsNoSnapshot(t *testing.T) {
	n := smallNet(t)
	defer n.Close()
	if err := n.AttachBroker("R1", "b"); err != nil {
		t.Fatal(err)
	}
	flyer, _ := n.Join("flyer", "R2", "/4")
	rep, err := flyer.MoveTo("/4/2", 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SnapshotAreas != 0 || rep.Objects != 0 {
		t.Errorf("descending move fetched %d areas %d objects", rep.SnapshotAreas, rep.Objects)
	}
	if rep.Type != "to lower layer" {
		t.Errorf("type = %q", rep.Type)
	}
}

func TestLeaveStopsDelivery(t *testing.T) {
	n := smallNet(t)
	defer n.Close()
	a, _ := n.Join("a", "R3", "/5/5")
	b, _ := n.Join("b", "R1", "/5/5")
	if err := a.Leave(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-a.Updates(); ok {
		t.Error("updates channel not closed on leave")
	}
	// Publishing afterwards must not panic or deliver to the departed.
	if err := b.Publish("x", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := a.Leave(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestNetworkValidation(t *testing.T) {
	n, err := New(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(0, 5); err == nil {
		t.Error("degenerate map accepted")
	}
	if err := n.AddRouter("R1"); err != nil {
		t.Fatal(err)
	}
	if err := n.AddRouter("R1"); err == nil {
		t.Error("duplicate router accepted")
	}
	if err := n.Link("R1", "ghost"); err == nil {
		t.Error("link to ghost accepted")
	}
	if err := n.Link("ghost", "R1"); err == nil {
		t.Error("link from ghost accepted")
	}
	if err := n.StartRP("ghost", "/rp"); err == nil {
		t.Error("RP on ghost accepted")
	}
	if err := n.AttachBroker("ghost", "b"); err == nil {
		t.Error("broker on ghost accepted")
	}
	if err := n.StartRP("R1", "/rp"); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachBroker("R1", "b", "/9"); err == nil {
		t.Error("broker with bad area accepted")
	}
	if err := n.AttachBroker("R1", "b", "/1"); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachBroker("R1", "b"); err == nil {
		t.Error("duplicate broker accepted")
	}
	if _, err := n.Join("p", "ghost", "/1/1"); err != nil {
		if _, err2 := n.Join("p", "R1", "/1/1"); err2 != nil {
			t.Fatal(err2)
		}
	} else {
		t.Error("join on ghost router accepted")
	}
	if _, err := n.Join("p", "R1", "/1/1"); err == nil {
		t.Error("duplicate player accepted")
	}
	n.Close()
	if _, err := n.Join("q", "R1", "/1/1"); err == nil {
		t.Error("join after close accepted")
	}
	if err := n.AddRouter("R9"); err == nil {
		t.Error("add router after close accepted")
	}
	n.Close() // idempotent
}

func TestSlowConsumerDropsOldest(t *testing.T) {
	n := smallNet(t)
	defer n.Close()
	listener, _ := n.Join("listener", "R3", "/1/1")
	sender, _ := n.Join("sender", "R1", "/1/1")
	// Overflow the 256-slot buffer without draining.
	for i := 0; i < updateBuffer+50; i++ {
		if err := sender.Publish("spam", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	_, _, _, dropped := n.Stats()
	if dropped == 0 {
		t.Error("no drops recorded despite overflow")
	}
	// The newest update must still be present somewhere in the buffer.
	var last Update
	for {
		select {
		case u := <-listener.Updates():
			last = u
			continue
		default:
		}
		break
	}
	if last.Seq != uint64(updateBuffer+50) {
		t.Errorf("newest seq = %d, want %d", last.Seq, updateBuffer+50)
	}
}

// TestSnapshotRoutesDeterministic: with two equal-hop paths back to the
// broker (diamond R1–R2–R4 / R1–R3–R4), R4's /snapshot next hop must not
// depend on map iteration order. The breadth-first walk visits each router's
// wires in ascending face order, so R4 always routes via R2 (its face 1).
func TestSnapshotRoutesDeterministic(t *testing.T) {
	for i := 0; i < 64; i++ {
		n, err := New(5, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []string{"R1", "R2", "R3", "R4"} {
			if err := n.AddRouter(r); err != nil {
				t.Fatal(err)
			}
		}
		for _, l := range [][2]string{{"R1", "R2"}, {"R1", "R3"}, {"R2", "R4"}, {"R3", "R4"}} {
			if err := n.Link(l[0], l[1]); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.StartRP("R1", "/rp1"); err != nil {
			t.Fatal(err)
		}
		if err := n.AttachBroker("R1", "broker"); err != nil {
			t.Fatal(err)
		}
		n.mu.Lock()
		faces, _, ok := n.routers["R4"].r.NDN().FIB().Lookup(broker.SnapshotPrefix)
		n.mu.Unlock()
		n.Close()
		if !ok || len(faces) != 1 || faces[0] != 1 {
			t.Fatalf("build %d: R4 routes %s via %v (ok=%v), want face 1 toward R2", i, broker.SnapshotPrefix, faces, ok)
		}
	}
}

// TestSnapshotRouteLaterBrokerWins: on the diamond R1–R2–R4 / R1–R3–R4, a
// broker attached on R4 and then a second one attached on R2 each take over
// every router's /snapshot route, and the synchronous pump leaves no
// reliable control packet unacknowledged.
func TestSnapshotRouteLaterBrokerWins(t *testing.T) {
	n, err := New(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	names := []string{"R1", "R2", "R3", "R4"}
	for _, r := range names {
		if err := n.AddRouter(r); err != nil {
			t.Fatal(err)
		}
	}
	// Faces: R1 1→R2 2→R3; R2 1→R1 2→R4; R3 1→R1 2→R4; R4 1→R2 2→R3.
	for _, l := range [][2]string{{"R1", "R2"}, {"R1", "R3"}, {"R2", "R4"}, {"R3", "R4"}} {
		if err := n.Link(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.StartRP("R1", "/rp1"); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		router string
		want   [4]ndn.FaceID // next hop on R1..R4
	}{
		// R4's broker is its face 3; R1 hears R2 (its face 1) first.
		{"R4", [4]ndn.FaceID{1, 2, 2, 3}},
		// R2's broker is its face 3; R3 hears R1 (its face 1) before R4.
		{"R2", [4]ndn.FaceID{1, 3, 1, 1}},
	} {
		if err := n.AttachBroker(step.router, "broker-"+step.router); err != nil {
			t.Fatal(err)
		}
		n.mu.Lock()
		for i, name := range names {
			r := n.routers[name].r
			faces, _, ok := r.NDN().FIB().Lookup(broker.SnapshotPrefix)
			if !ok || len(faces) != 1 || faces[0] != step.want[i] {
				t.Errorf("after broker on %s: %s routes %s via %v (ok=%v), want face %d",
					step.router, name, broker.SnapshotPrefix, faces, ok, step.want[i])
			}
			if p := r.ARQPending(); p != 0 {
				t.Errorf("after broker on %s: %s has %d unacknowledged control packets", step.router, name, p)
			}
		}
		n.mu.Unlock()
	}
}

// TestClosedNetworkRefusesMutation: after Close, every method that would
// change the fabric or run the pump returns the closed error.
func TestClosedNetworkRefusesMutation(t *testing.T) {
	n := smallNet(t)
	p, err := n.Join("p", "R2", "/1/1")
	if err != nil {
		t.Fatal(err)
	}
	n.Close()
	for _, tc := range []struct {
		method string
		call   func() error
	}{
		{"AddRouter", func() error { return n.AddRouter("R9") }},
		{"Link", func() error { return n.Link("R1", "R3") }},
		{"StartRP", func() error { return n.StartRP("R2", "/rp2") }},
		{"AttachBroker", func() error { return n.AttachBroker("R2", "b") }},
		{"Join", func() error { _, err := n.Join("q", "R1", "/1/2"); return err }},
		{"Publish", func() error { return p.Publish("x", nil) }},
		{"PublishTo", func() error { return p.PublishTo("/1", "x", nil) }},
		{"MoveTo", func() error { _, err := p.MoveTo("/1/2", 0); return err }},
		{"Suspend", p.Suspend},
		{"Resume", func() error { _, err := p.Resume(); return err }},
	} {
		if err := tc.call(); err == nil || err.Error() != "gcopss: network closed" {
			t.Errorf("%s after Close: err = %v, want gcopss: network closed", tc.method, err)
		}
	}
}
