package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/icn-gaming/gcopss/internal/gamemap"
)

// Config parameterizes the large-scale trace synthesizer.
type Config struct {
	Players      int
	Duration     time.Duration
	TotalUpdates int

	// Update payload sizes, uniform in [MinUpdateSize, MaxUpdateSize].
	MinUpdateSize int
	MaxUpdateSize int

	// Players per area, drawn uniformly in [MinPlayersPerArea,
	// MaxPlayersPerArea] then rescaled so the total matches Players.
	MinPlayersPerArea int
	MaxPlayersPerArea int

	// HeavyTailSigma is the σ of the lognormal per-player activity weights
	// that shape the Fig. 3c distribution; 0 selects the default (1.1).
	HeavyTailSigma float64

	Seed int64
}

// PaperConfig returns the published statistics of the filtered CS trace:
// 414 players, 1,686,905 updates over 7h05m25s, 4–20 players per area.
func PaperConfig() Config {
	return Config{
		Players:           414,
		Duration:          7*time.Hour + 5*time.Minute + 25*time.Second,
		TotalUpdates:      1_686_905,
		MinUpdateSize:     50,
		MaxUpdateSize:     350,
		MinPlayersPerArea: 4,
		MaxPlayersPerArea: 20,
		Seed:              20120618, // ICDCS'12
	}
}

// validate normalizes and checks a config.
func (c *Config) validate() error {
	if c.Players < 1 || c.TotalUpdates < 1 || c.Duration <= 0 {
		return fmt.Errorf("trace: degenerate config %+v", *c)
	}
	if c.MinUpdateSize <= 0 {
		c.MinUpdateSize = 50
	}
	if c.MaxUpdateSize < c.MinUpdateSize {
		c.MaxUpdateSize = c.MinUpdateSize
	}
	if c.MinPlayersPerArea <= 0 {
		c.MinPlayersPerArea = 1
	}
	if c.MaxPlayersPerArea < c.MinPlayersPerArea {
		c.MaxPlayersPerArea = c.MinPlayersPerArea
	}
	if c.HeavyTailSigma == 0 {
		c.HeavyTailSigma = 1.1
	}
	return nil
}

// Generate synthesizes a trace over the world's map: players are placed per
// Fig. 3d, per-player update counts follow a heavy-tailed (lognormal)
// distribution per Fig. 3c, update times are uniform over the duration, and
// each update targets an object visible from the player's area (so
// top-layer objects accumulate updates from everyone, as in the paper).
func Generate(w *gamemap.World, cfg Config) (*Trace, error) {
	areas := playerAreas(w.Map)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rnd := rand.New(rand.NewSource(cfg.Seed))

	t := &Trace{Duration: cfg.Duration}
	placePlayers(t, areas, cfg, rnd)
	assignUpdates(t, w, cfg, rnd)
	t.Sort()
	return t, nil
}

// playerAreas returns the areas players may occupy (every area of the map).
func playerAreas(m *gamemap.Map) []*gamemap.Area {
	return m.Areas()
}

// placePlayers distributes cfg.Players across areas with per-area counts in
// the configured band (rescaled to the exact total).
func placePlayers(t *Trace, areas []*gamemap.Area, cfg Config, rnd *rand.Rand) {
	t.Players = placePlayerInfos(areas, cfg.Players, cfg.MinPlayersPerArea, cfg.MaxPlayersPerArea, rnd)
}

// placePlayerInfos is the placement core shared by the batch generator and
// the streaming generator: per-area counts drawn in [minPer, maxPer],
// rescaled to the exact player total.
func placePlayerInfos(areas []*gamemap.Area, players, minPer, maxPer int, rnd *rand.Rand) []PlayerInfo {
	weights := make([]int, len(areas))
	total := 0
	for i := range areas {
		weights[i] = minPer
		if span := maxPer - minPer; span > 0 {
			weights[i] += rnd.Intn(span + 1)
		}
		total += weights[i]
	}
	// Rescale to the exact player count, respecting a floor of 1 per area
	// when players are plentiful.
	counts := make([]int, len(areas))
	assigned := 0
	for i := range areas {
		counts[i] = weights[i] * players / total
		assigned += counts[i]
	}
	for i := 0; assigned < players; i++ {
		counts[i%len(counts)]++
		assigned++
	}
	for i := 0; assigned > players; i++ {
		if counts[i%len(counts)] > 0 {
			counts[i%len(counts)]--
			assigned--
		}
	}
	out := make([]PlayerInfo, 0, players)
	for i, a := range areas {
		for j := 0; j < counts[i]; j++ {
			out = append(out, PlayerInfo{
				ID:   fmt.Sprintf("player%d", len(out)),
				Area: a.CD(),
			})
		}
	}
	return out
}

// assignUpdates draws per-player activity weights from a lognormal
// distribution, splits the exact update total proportionally, then assigns
// times and visible-object targets.
func assignUpdates(t *Trace, w *gamemap.World, cfg Config, rnd *rand.Rand) {
	n := len(t.Players)
	weights := make([]float64, n)
	var wsum float64
	for i := range weights {
		weights[i] = math.Exp(rnd.NormFloat64() * cfg.HeavyTailSigma)
		wsum += weights[i]
	}
	counts := make([]int, n)
	assigned := 0
	for i := range counts {
		counts[i] = int(weights[i] / wsum * float64(cfg.TotalUpdates))
		assigned += counts[i]
	}
	for i := 0; assigned < cfg.TotalUpdates; i++ {
		counts[i%n]++
		assigned++
	}
	for i := 0; assigned > cfg.TotalUpdates; i++ {
		if counts[i%n] > 0 {
			counts[i%n]--
			assigned--
		}
	}

	t.Updates = make([]Update, 0, cfg.TotalUpdates)
	sizeSpan := cfg.MaxUpdateSize - cfg.MinUpdateSize + 1
	for pi, c := range counts {
		area, _ := w.Map.Area(t.Players[pi].Area)
		visible := w.VisibleObjects(area)
		for k := 0; k < c; k++ {
			at := time.Duration(rnd.Int63n(int64(cfg.Duration)))
			u := Update{
				At:     at,
				Player: pi,
				Size:   cfg.MinUpdateSize + rnd.Intn(sizeSpan),
			}
			if len(visible) > 0 {
				obj := visible[rnd.Intn(len(visible))]
				u.CD = obj.Leaf
				u.Object = obj.ID
			} else {
				u.CD = area.PublishCD()
			}
			t.Updates = append(t.Updates, u)
		}
	}
}

// MicrobenchConfig parameterizes the 62-player testbed trace: 2 players in
// every area of the 5×5 map, each publishing at a uniform interval in
// [MinInterval, MaxInterval] for the full duration, with 50–350-byte
// payloads; the paper's run yields 12,440 publish events in 10 minutes.
type MicrobenchConfig struct {
	PlayersPerArea int
	Duration       time.Duration
	MinInterval    time.Duration
	MaxInterval    time.Duration
	MinUpdateSize  int
	MaxUpdateSize  int
	Seed           int64
}

// PaperMicrobench returns the microbenchmark parameters of Section V-A.
func PaperMicrobench() MicrobenchConfig {
	return MicrobenchConfig{
		PlayersPerArea: 2,
		Duration:       10 * time.Minute,
		MinInterval:    time.Second,
		MaxInterval:    5 * time.Second,
		MinUpdateSize:  50,
		MaxUpdateSize:  350,
		Seed:           62,
	}
}

// GenerateMicrobench synthesizes the testbed trace.
func GenerateMicrobench(w *gamemap.World, cfg MicrobenchConfig) (*Trace, error) {
	if cfg.PlayersPerArea < 1 || cfg.Duration <= 0 || cfg.MinInterval <= 0 ||
		cfg.MaxInterval < cfg.MinInterval {
		return nil, fmt.Errorf("trace: degenerate microbench config %+v", cfg)
	}
	if cfg.MinUpdateSize <= 0 {
		cfg.MinUpdateSize = 50
	}
	if cfg.MaxUpdateSize < cfg.MinUpdateSize {
		cfg.MaxUpdateSize = cfg.MinUpdateSize
	}
	rnd := rand.New(rand.NewSource(cfg.Seed))
	t := &Trace{Duration: cfg.Duration}

	areas := w.Map.Areas()
	for _, a := range areas {
		for j := 0; j < cfg.PlayersPerArea; j++ {
			t.Players = append(t.Players, PlayerInfo{
				ID:   fmt.Sprintf("player%d", len(t.Players)),
				Area: a.CD(),
			})
		}
	}

	span := int64(cfg.MaxInterval - cfg.MinInterval)
	sizeSpan := cfg.MaxUpdateSize - cfg.MinUpdateSize + 1
	for pi, p := range t.Players {
		area, _ := w.Map.Area(p.Area)
		visible := w.VisibleObjects(area)
		at := time.Duration(rnd.Int63n(int64(cfg.MinInterval))) // desynchronized start
		for at < cfg.Duration {
			u := Update{
				At:     at,
				Player: pi,
				Size:   cfg.MinUpdateSize + rnd.Intn(sizeSpan),
			}
			if len(visible) > 0 {
				obj := visible[rnd.Intn(len(visible))]
				u.CD = obj.Leaf
				u.Object = obj.ID
			} else {
				u.CD = area.PublishCD()
			}
			t.Updates = append(t.Updates, u)
			step := cfg.MinInterval
			if span > 0 {
				step += time.Duration(rnd.Int63n(span))
			}
			at += step
		}
	}
	t.Sort()
	return t, nil
}

// ActivityCDF returns the sorted per-player update counts together with
// cumulative fractions — the data behind Fig. 3c.
func ActivityCDF(t *Trace) ([]int, []float64) {
	counts := t.UpdatesPerPlayer()
	sort.Ints(counts)
	fracs := make([]float64, len(counts))
	for i := range counts {
		fracs[i] = float64(i+1) / float64(len(counts))
	}
	return counts, fracs
}
