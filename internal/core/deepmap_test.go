package core

import (
	"reflect"
	"sort"
	"testing"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/gamemap"
	"github.com/icn-gaming/gcopss/internal/ndn"
)

// TestArbitraryDepthHierarchy exercises the paper's claim that "G-COPSS in
// fact allows map designers to divide the map into arbitrary layers": a
// four-layer map (world → regions → zones → rooms) with players at every
// altitude, end to end through real routers, with the RPs serving a
// prefix-free partition that cuts across layers.
func TestArbitraryDepthHierarchy(t *testing.T) {
	m, err := gamemap.NewGrid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	z11, _ := m.Area(cd.MustParse("/1/1"))
	for _, room := range []string{"a", "b"} {
		if _, err := m.AddSubArea(z11, room); err != nil {
			t.Fatal(err)
		}
	}
	m.Freeze()

	h := newHarness(t)
	h.addRouter("R1")
	h.addRouter("R2")
	h.connect("R1", 1, "R2", 1)

	// Prefix-free partition cutting across layers: rp1 serves the deep
	// subtree /1/1 (with its rooms), rp2 the rest.
	a1, err := becomeRP(h.routers["R1"], copss.RPInfo{
		Name:     "/rp1",
		Prefixes: []cd.CD{cd.MustParse("/1/1")},
		Seq:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.enqueueActions("R1", a1)
	h.run()
	a2, err := becomeRP(h.routers["R2"], copss.RPInfo{
		Name:     "/rp2",
		Prefixes: []cd.CD{cd.MustNew(""), cd.MustParse("/1/2"), cd.MustParse("/1/"), cd.MustParse("/2")},
		Seq:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.enqueueActions("R2", a2)
	h.run()

	// Players at four altitudes.
	players := map[string]string{ // name → area node CD
		"roomer":    "/1/1/a", // in a room (layer 4)
		"zoner":     "/1/1",   // hovering over zone 1/1's rooms (layer 3)
		"plane":     "/1",     // over region 1 (layer 2)
		"satellite": "",       // the world (layer 1)
		"neighbor":  "/1/1/b", // the adjacent room
	}
	nextFace := ndn.FaceID(30)
	for name, areaKey := range players {
		router := "R1"
		if name == "plane" || name == "satellite" {
			router = "R2"
		}
		nextFace++
		h.attach(name, router, nextFace)
		area, ok := m.Area(cd.MustParse(areaKey))
		if !ok {
			t.Fatalf("area %q missing", areaKey)
		}
		keys := make([]string, len(area.SubscriptionCDs()))
		for i, c := range area.SubscriptionCDs() {
			keys[i] = c.Key()
		}
		h.fromClient(name, sub(keys...))
	}
	h.run()

	// Visibility matrix across four layers.
	pubs := []struct {
		who  string
		want []string // receivers (excluding publisher echo filtering)
	}{
		// Roomer publishes in /1/1/a: seen by the zoner hovering above, the
		// plane, the satellite — but NOT the neighboring room.
		{"roomer", []string{"plane", "roomer", "satellite", "zoner"}},
		// Zoner publishes to /1/1/ airspace: both rooms see the hover.
		{"zoner", []string{"neighbor", "plane", "roomer", "satellite", "zoner"}},
		// The plane over region 1 is seen by everyone under it.
		{"plane", []string{"neighbor", "plane", "roomer", "satellite", "zoner"}},
		// The satellite is seen by all.
		{"satellite", []string{"neighbor", "plane", "roomer", "satellite", "zoner"}},
	}
	for _, tt := range pubs {
		for _, c := range h.clients {
			c.received = nil
		}
		area, _ := m.Area(cd.MustParse(players[tt.who]))
		h.fromClient(tt.who, mcast(area.PublishCD().Key(), tt.who, 1, "evt"))
		h.run()
		var got []string
		for name, c := range h.clients {
			if len(c.multicastsReceived()) > 0 {
				got = append(got, name)
			}
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("%s publishes at %q: delivered to %v, want %v",
				tt.who, players[tt.who], got, tt.want)
		}
	}

	// Movement across four layers classifies and costs correctly: a room
	// player ascending to the zone hover must download the sibling room.
	from, _ := m.Area(cd.MustParse("/1/1/a"))
	to, _ := m.Area(cd.MustParse("/1/1"))
	snaps := gamemap.SnapshotCDs(from, to)
	if len(snaps) != 1 || snaps[0] != cd.MustParse("/1/1/b") {
		t.Errorf("room→zone snapshots = %v", snaps)
	}
}
