package trace

import (
	"math/rand"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/gamemap"
)

func streamWorld(t *testing.T) *gamemap.World {
	t.Helper()
	m, err := gamemap.NewGrid(5, 5)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	w := gamemap.NewWorld(m)
	if err := w.PopulateObjects(gamemap.PaperObjectCounts(), 0, rand.New(rand.NewSource(31))); err != nil {
		t.Fatalf("PopulateObjects: %v", err)
	}
	return w
}

func streamConfig() StreamConfig {
	return StreamConfig{
		Players:           200,
		Duration:          30 * time.Second,
		MinInterval:       time.Second,
		MaxInterval:       5 * time.Second,
		MinUpdateSize:     50,
		MaxUpdateSize:     350,
		MinPlayersPerArea: 4,
		MaxPlayersPerArea: 20,
		Seed:              3967,
	}
}

func TestStreamPlacementAndBounds(t *testing.T) {
	w := streamWorld(t)
	cfg := streamConfig()
	s, err := NewStream(w, cfg)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	if got := len(s.Players()); got != cfg.Players {
		t.Fatalf("placed %d players, want %d", got, cfg.Players)
	}
	tr := s.Materialize()
	if len(tr.Updates) == 0 {
		t.Fatal("stream produced no updates")
	}
	for _, u := range tr.Updates {
		if u.At < 0 || u.At >= cfg.Duration {
			t.Fatalf("update at %v outside [0, %v)", u.At, cfg.Duration)
		}
		if u.Size < cfg.MinUpdateSize || u.Size > cfg.MaxUpdateSize {
			t.Fatalf("update size %d outside [%d, %d]", u.Size, cfg.MinUpdateSize, cfg.MaxUpdateSize)
		}
		if u.CD.Key() == "" {
			t.Fatal("update with empty CD")
		}
	}
	// Uniform intervals in [1s, 5s] over 30s ≈ 10 updates/player: sanity
	// band, not an exact count.
	per := tr.UpdatesPerPlayer()
	for pi, c := range per {
		if c < 5 || c > 31 {
			t.Fatalf("player %d produced %d updates, outside sanity band", pi, c)
		}
	}
}

// TestStreamInterleavingIndependence is the property the testbed's publish
// chains rely on: a player's sequence is identical whether streams are
// drained player-by-player, round-robin, or in reverse — so interleaved
// publish chains produce one canonical workload.
func TestStreamInterleavingIndependence(t *testing.T) {
	w := streamWorld(t)
	cfg := streamConfig()
	a, err := NewStream(w, cfg)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	b, err := NewStream(w, cfg)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	seq := make([][]Update, cfg.Players)
	for pi := 0; pi < cfg.Players; pi++ { // player-by-player
		for {
			u, ok := a.Next(pi)
			if !ok {
				break
			}
			seq[pi] = append(seq[pi], u)
		}
	}
	pos := make([]int, cfg.Players)
	live := cfg.Players
	for round := 0; live > 0; round++ { // reverse round-robin
		for pi := cfg.Players - 1; pi >= 0; pi-- {
			if pos[pi] < 0 {
				continue
			}
			u, ok := b.Next(pi)
			if !ok {
				pos[pi] = -1
				live--
				continue
			}
			if want := seq[pi][pos[pi]]; u != want {
				t.Fatalf("player %d update %d differs across interleavings:\n got %+v\nwant %+v",
					pi, pos[pi], u, want)
			}
			pos[pi]++
		}
	}
	for pi, p := range pos {
		if p >= 0 && p != len(seq[pi]) {
			t.Fatalf("player %d: round-robin drain stopped at %d of %d", pi, p, len(seq[pi]))
		}
	}
}

func TestStreamDeterministicAcrossRuns(t *testing.T) {
	w := streamWorld(t)
	cfg := streamConfig()
	a, _ := NewStream(w, cfg)
	b, _ := NewStream(w, cfg)
	ta, tb := a.Materialize(), b.Materialize()
	if len(ta.Updates) != len(tb.Updates) {
		t.Fatalf("runs differ in length: %d vs %d", len(ta.Updates), len(tb.Updates))
	}
	for i := range ta.Updates {
		if ta.Updates[i] != tb.Updates[i] {
			t.Fatalf("update %d differs: %+v vs %+v", i, ta.Updates[i], tb.Updates[i])
		}
	}
}

func TestStreamRejectsDegenerateConfig(t *testing.T) {
	w := streamWorld(t)
	bad := []StreamConfig{
		{},
		{Players: 10, Duration: time.Second}, // no intervals
		{Players: 10, Duration: time.Second, MinInterval: 2 * time.Second, MaxInterval: time.Second}, // inverted
		{Players: 0, Duration: time.Second, MinInterval: time.Second, MaxInterval: time.Second},
	}
	for i, cfg := range bad {
		if _, err := NewStream(w, cfg); err == nil {
			t.Errorf("case %d: degenerate config %+v accepted", i, cfg)
		}
	}
}
