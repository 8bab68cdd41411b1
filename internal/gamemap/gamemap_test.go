package gamemap

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/icn-gaming/gcopss/internal/cd"
)

func grid55(t *testing.T) *Map {
	t.Helper()
	m, err := NewGrid(5, 5)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	return m
}

func area(t *testing.T, m *Map, key string) *Area {
	t.Helper()
	a, ok := m.Area(cd.MustParse(key))
	if !ok {
		t.Fatalf("area %q not found", key)
	}
	return a
}

func TestLookup(t *testing.T) {
	m := grid55(t)
	for _, tc := range []struct {
		path string
		want string // node CD key of the resolved area; "-" for an error
	}{
		{"", ""},         // the world
		{"/", ""},        // the world's airspace is the world
		{"/1", "/1"},     // a region
		{"/1/2", "/1/2"}, // a zone
		{"/1/", "/1"},    // region 1's airspace is region 1
		{"/9", "-"},      // not on the map
		{"//", "-"},      // malformed
	} {
		a, err := m.Lookup(tc.path)
		if tc.want == "-" {
			if err == nil {
				t.Errorf("Lookup(%q) = %v, want an error", tc.path, a.CD())
			}
			continue
		}
		if err != nil || a.CD().Key() != tc.want {
			t.Errorf("Lookup(%q) = %v, %v; want area %q", tc.path, a, err, tc.want)
		}
	}
}

func TestGridStructure(t *testing.T) {
	m := grid55(t)
	// 31 leaves: 25 zones + 5 region airspaces + 1 world airspace.
	if got := m.LeafCount(); got != 31 {
		t.Errorf("LeafCount = %d, want 31", got)
	}
	if got := len(m.Areas()); got != 31 {
		t.Errorf("areas = %d, want 31 (1 world + 5 regions + 25 zones)", got)
	}
	if got := m.RegionNames(); !reflect.DeepEqual(got, []string{"1", "2", "3", "4", "5"}) {
		t.Errorf("RegionNames = %v", got)
	}
	root := m.Root()
	if root.IsLeaf() || root.Depth() != 0 || root.Parent() != nil {
		t.Error("root misconfigured")
	}
	if len(root.Children()) != 5 {
		t.Errorf("root children = %d", len(root.Children()))
	}
	z := area(t, m, "/3/4")
	if !z.IsLeaf() || z.Depth() != 2 {
		t.Error("zone misclassified")
	}
	if z.Parent() != area(t, m, "/3") {
		t.Error("zone parent wrong")
	}
	if _, ok := m.Area(cd.MustParse("/9")); ok {
		t.Error("phantom area found")
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := NewGrid(0, 5); err == nil {
		t.Error("NewGrid(0,5) accepted")
	}
	if _, err := NewGrid(5, 0); err == nil {
		t.Error("NewGrid(5,0) accepted")
	}
}

func TestLeafAndPublishCDs(t *testing.T) {
	m := grid55(t)
	tests := []struct {
		area string
		leaf string
	}{
		{"", "/"},        // world → world airspace
		{"/1", "/1/"},    // region → region airspace
		{"/1/2", "/1/2"}, // zone → itself
	}
	for _, tt := range tests {
		a := area(t, m, tt.area)
		if got := a.LeafCD(); got != cd.MustParse(tt.leaf) {
			t.Errorf("LeafCD(%q) = %v, want %v", tt.area, got, tt.leaf)
		}
		if got := a.PublishCD(); got != cd.MustParse(tt.leaf) {
			t.Errorf("PublishCD(%q) = %v", tt.area, got)
		}
		back, ok := m.AreaOfLeaf(cd.MustParse(tt.leaf))
		if !ok || back != a {
			t.Errorf("AreaOfLeaf(%q) failed", tt.leaf)
		}
	}
}

func TestSubscriptionCDsMatchPaper(t *testing.T) {
	m := grid55(t)
	tests := []struct {
		area string
		want []string
	}{
		// "a player standing on 1/2 should subscribe to /, /1/ ... and /1/2"
		{"/1/2", []string{"/1/2", "/1/", "/"}},
		// "the player can therefore subscribe to / ... and /1"
		{"/1", []string{"/1", "/"}},
		// The satellite's aggregated subscription is the root.
		{"", []string{""}},
	}
	for _, tt := range tests {
		a := area(t, m, tt.area)
		got := a.SubscriptionCDs()
		want := make([]cd.CD, len(tt.want))
		for i, s := range tt.want {
			want[i] = cd.MustParse(s)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("SubscriptionCDs(%q) = %v, want %v", tt.area, got, want)
		}
	}
}

func TestVisibleLeaves(t *testing.T) {
	m := grid55(t)
	// Zone /1/2 sees itself, planes over region 1, and the satellite layer.
	got := area(t, m, "/1/2").VisibleLeaves()
	want := []cd.CD{cd.MustParse("/"), cd.MustParse("/1/"), cd.MustParse("/1/2")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("zone VisibleLeaves = %v", got)
	}
	// Region 1 flyer sees its 5 zones, its own airspace and the top.
	got = area(t, m, "/1").VisibleLeaves()
	if len(got) != 7 {
		t.Errorf("region VisibleLeaves = %v (len %d, want 7)", got, len(got))
	}
	// The satellite sees all 31 leaves.
	if got := m.Root().VisibleLeaves(); len(got) != 31 {
		t.Errorf("world VisibleLeaves = %d, want 31", len(got))
	}
}

func TestClassifyMoveTableIII(t *testing.T) {
	m := grid55(t)
	tests := []struct {
		from, to string
		want     MoveType
		snaps    int // leaf CDs to download, per Table III
	}{
		{"/1", "/1/1", MoveToLowerLayer, 0},          // plane landing
		{"", "/1", MoveToLowerLayer, 0},              // satellite descending
		{"/1/1", "/1", MoveZoneToRegion, 4},          // plane take-off
		{"/1", "", MoveRegionToWorld, 24},            // launching a satellite
		{"/1/1", "/1/2", MoveZoneSameRegion, 1},      // soldier within country
		{"/2/3", "/3/2", MoveZoneDifferentRegion, 2}, // soldier across border
		{"/1", "/2", MoveRegionToRegion, 6},          // plane across border
	}
	for _, tt := range tests {
		from, to := area(t, m, tt.from), area(t, m, tt.to)
		got, err := ClassifyMove(from, to)
		if err != nil {
			t.Fatalf("ClassifyMove(%q→%q): %v", tt.from, tt.to, err)
		}
		if got != tt.want {
			t.Errorf("ClassifyMove(%q→%q) = %v, want %v", tt.from, tt.to, got, tt.want)
		}
		if snaps := SnapshotCDs(from, to); len(snaps) != tt.snaps {
			t.Errorf("SnapshotCDs(%q→%q) = %v (len %d, want %d)", tt.from, tt.to, snaps, len(snaps), tt.snaps)
		}
	}
	if _, err := ClassifyMove(nil, m.Root()); err == nil {
		t.Error("nil area accepted")
	}
	if _, err := ClassifyMove(m.Root(), m.Root()); err == nil {
		t.Error("no-op move accepted")
	}
}

func TestSnapshotCDsContents(t *testing.T) {
	m := grid55(t)
	// Zone→region: exactly the four sibling zones.
	snaps := SnapshotCDs(area(t, m, "/1/1"), area(t, m, "/1"))
	want := []cd.CD{cd.MustParse("/1/2"), cd.MustParse("/1/3"), cd.MustParse("/1/4"), cd.MustParse("/1/5")}
	if !reflect.DeepEqual(snaps, want) {
		t.Errorf("snaps = %v, want %v", snaps, want)
	}
	// Cross-border zone move: new zone + new region airspace.
	snaps = SnapshotCDs(area(t, m, "/2/3"), area(t, m, "/3/2"))
	want = []cd.CD{cd.MustParse("/3/"), cd.MustParse("/3/2")}
	if !reflect.DeepEqual(snaps, want) {
		t.Errorf("snaps = %v, want %v", snaps, want)
	}
}

func TestPlayerMove(t *testing.T) {
	m := grid55(t)
	p := NewPlayer("p1", area(t, m, "/1/1"))
	if p.PublishCD() != cd.MustParse("/1/1") {
		t.Errorf("PublishCD = %v", p.PublishCD())
	}
	res, err := p.Move(area(t, m, "/1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Type != MoveZoneToRegion {
		t.Errorf("Type = %v", res.Type)
	}
	// /1/1 and /1/ out; /1 in; / persists.
	if !reflect.DeepEqual(res.Unsubscribe, []cd.CD{cd.MustParse("/1/"), cd.MustParse("/1/1")}) {
		t.Errorf("Unsubscribe = %v", res.Unsubscribe)
	}
	if !reflect.DeepEqual(res.Subscribe, []cd.CD{cd.MustParse("/1")}) {
		t.Errorf("Subscribe = %v", res.Subscribe)
	}
	if len(res.Snapshots) != 4 {
		t.Errorf("Snapshots = %v", res.Snapshots)
	}
	if p.Area() != area(t, m, "/1") {
		t.Error("player did not move")
	}
	if got := p.SubscriptionCDs(); len(got) != 2 {
		t.Errorf("SubscriptionCDs = %v", got)
	}
}

func TestMoveTypeStrings(t *testing.T) {
	for _, mt := range MoveTypes() {
		if mt.String() == "" || mt.String()[0] == 'M' {
			t.Errorf("MoveType %d has no label: %q", int(mt), mt.String())
		}
	}
	if MoveType(0).String() != "MoveType(0)" {
		t.Error("zero MoveType should render as invalid")
	}
}

func TestObjectDecayFormula(t *testing.T) {
	o := NewObject("o1", cd.MustParse("/1/1"), 0.95)
	if o.Size != 0 || o.Version != 0 {
		t.Fatal("fresh object not at version 0")
	}
	// Apply updates of 100 bytes each; S_n = 0.95·S_{n-1} + 100.
	var want float64
	for i := 0; i < 50; i++ {
		o.ApplyUpdate(100)
		want = 0.95*want + 100
	}
	if o.Size != want {
		t.Errorf("Size = %f, want %f", o.Size, want)
	}
	if o.Version != 50 || o.Updates != 50 {
		t.Errorf("Version/Updates = %d/%d", o.Version, o.Updates)
	}
	// The geometric series converges to updSize/(1-λ) = 2000.
	for i := 0; i < 2000; i++ {
		o.ApplyUpdate(100)
	}
	if o.Size < 1990 || o.Size > 2000 {
		t.Errorf("steady-state Size = %f, want ≈2000", o.Size)
	}
	// Degenerate decay falls back to the default.
	o2 := NewObject("o2", cd.MustParse("/1/1"), 7.5)
	o2.ApplyUpdate(100)
	o2.ApplyUpdate(100)
	if o2.Size != DefaultDecay*100+100 {
		t.Errorf("default decay not applied: %f", o2.Size)
	}
	if o.CDName() != "/snapshot/1/1/o1" {
		t.Errorf("CDName = %q", o.CDName())
	}
}

func TestPopulateObjectsPaperCounts(t *testing.T) {
	m := grid55(t)
	w := NewWorld(m)
	counts := PaperObjectCounts()
	if err := w.PopulateObjects(counts, 0, rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}
	if got := w.ObjectCount(); got != 3197 {
		t.Errorf("ObjectCount = %d, want 3197", got)
	}
	top := len(w.ObjectsAt(cd.MustParse("/")))
	if top != 87 {
		t.Errorf("top objects = %d, want 87", top)
	}
	var middle, bottom int
	for _, r := range []string{"1", "2", "3", "4", "5"} {
		middle += len(w.ObjectsAt(cd.MustNew(r, ""))) // region r's airspace leaf
		for z := 1; z <= 5; z++ {
			bottom += len(w.ObjectsAt(cd.MustNew(r, string(rune('0'+z)))))
		}
	}
	if middle != 483 {
		t.Errorf("middle objects = %d, want 483", middle)
	}
	if bottom != 2627 {
		t.Errorf("bottom objects = %d, want 2627", bottom)
	}
	// Per-zone counts stay within a plausible band around the mean (105).
	for z := 1; z <= 5; z++ {
		n := len(w.ObjectsAt(cd.MustNew("1", string(rune('0'+z)))))
		if n < 50 || n > 160 {
			t.Errorf("zone 1/%d objects = %d, outside [50,160]", z, n)
		}
	}
}

func TestVisibleObjects(t *testing.T) {
	m := grid55(t)
	w := NewWorld(m)
	if err := w.PopulateObjects(ObjectCounts{Top: 10, Middle: 25, Bottom: 50}, 0, nil); err != nil {
		t.Fatal(err)
	}
	// A soldier in /1/1 sees: zone objects (50/25=2) + region-1 airspace
	// objects (25/5=5) + top objects (10).
	zone := area(t, m, "/1/1")
	got := w.VisibleObjects(zone)
	if len(got) != 2+5+10 {
		t.Errorf("soldier sees %d objects, want 17", len(got))
	}
	// The satellite sees everything.
	if got := w.VisibleObjects(m.Root()); len(got) != 85 {
		t.Errorf("satellite sees %d objects, want 85", len(got))
	}
}

func TestSnapshotSize(t *testing.T) {
	m := grid55(t)
	w := NewWorld(m)
	if err := w.PopulateObjects(ObjectCounts{Top: 2, Middle: 5, Bottom: 25}, 0, nil); err != nil {
		t.Fatal(err)
	}
	leaf := cd.MustParse("/")
	if got := w.SnapshotSize(leaf); got != 0 {
		t.Errorf("fresh snapshot size = %f, want 0 (version-0 objects ship with the map)", got)
	}
	objs := w.ObjectsAt(leaf)
	objs[0].ApplyUpdate(100)
	objs[1].ApplyUpdate(200)
	if got := w.SnapshotSize(leaf); got != 300 {
		t.Errorf("snapshot size = %f, want 300", got)
	}
}

func TestCustomDeepMap(t *testing.T) {
	// Three-layer map: region 1 zone 1 subdivided into 2 sub-zones.
	m, err := NewGrid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	z11, _ := m.Area(cd.MustParse("/1/1"))
	if _, err := m.AddSubArea(z11, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddSubArea(z11, "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddSubArea(z11, "a"); err == nil {
		t.Error("duplicate sub-area accepted")
	}
	m.Freeze()
	// /1/1 is now internal: its leaf is /1/1/.
	if got := z11.LeafCD(); got != cd.MustParse("/1/1/") {
		t.Errorf("LeafCD = %v", got)
	}
	sub, _ := m.Area(cd.MustParse("/1/1/a"))
	got := sub.SubscriptionCDs()
	want := []cd.CD{cd.MustParse("/1/1/a"), cd.MustParse("/1/1/"), cd.MustParse("/1/"), cd.MustParse("/")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("deep SubscriptionCDs = %v, want %v", got, want)
	}
	// Leaves: 4 original zones -1 now internal +2 sub-zones +1 airspace of
	// /1/1 + 2 region airspaces + 1 world airspace = 9.
	if got := m.LeafCount(); got != 9 {
		t.Errorf("LeafCount = %d, want 9", got)
	}
}
