package trace

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/gamemap"
)

// StreamConfig parameterizes a streaming multi-thousand-player workload:
// the backbone-scale counterpart of MicrobenchConfig. Every player publishes
// at a uniform interval in [MinInterval, MaxInterval] with 50–350-byte-style
// payload sizes, like the microbenchmark, but updates are generated lazily
// one player-step at a time instead of materialized into a sorted slice — at
// thousands of players × minutes the materialized trace would dominate the
// benchmark's memory and setup time.
type StreamConfig struct {
	Players           int
	Duration          time.Duration
	MinInterval       time.Duration
	MaxInterval       time.Duration
	MinUpdateSize     int
	MaxUpdateSize     int
	MinPlayersPerArea int
	MaxPlayersPerArea int
	Seed              int64
}

// Stream generates each player's update sequence on demand. State is
// O(players): one splitmix64 PRNG word and one next-publish time per player,
// so a player's sequence depends only on (Seed, player index) — never on how
// the consumer interleaves Next calls across players. That independence is
// what lets the testbed drive each player's publish chain as its own node
// events and still produce one canonical workload.
type Stream struct {
	cfg     StreamConfig
	players []PlayerInfo
	areaOf  []int
	visible [][]*gamemap.Object
	pubCD   []cd.CD
	state   []uint64
	nextAt  []time.Duration
}

// NewStream places cfg.Players over the world's areas (same per-area band
// and rescaling as the batch generator) and initializes every player's
// stream at a desynchronized start offset in [0, MinInterval).
func NewStream(w *gamemap.World, cfg StreamConfig) (*Stream, error) {
	if cfg.Players < 1 || cfg.Duration <= 0 || cfg.MinInterval <= 0 ||
		cfg.MaxInterval < cfg.MinInterval {
		return nil, fmt.Errorf("trace: degenerate stream config %+v", cfg)
	}
	if cfg.MinUpdateSize <= 0 {
		cfg.MinUpdateSize = 50
	}
	if cfg.MaxUpdateSize < cfg.MinUpdateSize {
		cfg.MaxUpdateSize = cfg.MinUpdateSize
	}
	if cfg.MinPlayersPerArea <= 0 {
		cfg.MinPlayersPerArea = 1
	}
	if cfg.MaxPlayersPerArea < cfg.MinPlayersPerArea {
		cfg.MaxPlayersPerArea = cfg.MinPlayersPerArea
	}
	areas := playerAreas(w.Map)
	// Placement uses the shared batch-generator helper (and its rand stream)
	// so Fig. 3d-style per-area counts carry over to the backbone workload.
	rnd := rand.New(rand.NewSource(cfg.Seed))
	s := &Stream{
		cfg:     cfg,
		players: placePlayerInfos(areas, cfg.Players, cfg.MinPlayersPerArea, cfg.MaxPlayersPerArea, rnd),
		visible: make([][]*gamemap.Object, len(areas)),
		pubCD:   make([]cd.CD, len(areas)),
	}
	areaIdx := make(map[string]int, len(areas))
	for i, a := range areas {
		areaIdx[a.CD().Key()] = i
		s.visible[i] = w.VisibleObjects(a)
		s.pubCD[i] = a.PublishCD()
	}
	n := len(s.players)
	s.areaOf = make([]int, n)
	s.state = make([]uint64, n)
	s.nextAt = make([]time.Duration, n)
	for pi, p := range s.players {
		s.areaOf[pi] = areaIdx[p.Area.Key()]
		s.state[pi] = uint64(cfg.Seed)*0x9e3779b97f4a7c15 + uint64(pi+1)
		s.nextAt[pi] = time.Duration(splitmix64(&s.state[pi]) % uint64(cfg.MinInterval))
	}
	return s, nil
}

// splitmix64 advances one player's PRNG word and returns the next output.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Players returns the placement (index = player number used by Next).
func (s *Stream) Players() []PlayerInfo { return s.players }

// Next returns player pi's next update and advances their stream; ok is
// false once the player's schedule passes the configured duration. Safe to
// call for different players from different goroutines (state is strictly
// per player); calls for one player must be sequential, which the testbed's
// node contract already guarantees.
func (s *Stream) Next(pi int) (Update, bool) {
	at := s.nextAt[pi]
	if at >= s.cfg.Duration {
		return Update{}, false
	}
	st := &s.state[pi]
	u := Update{
		At:     at,
		Player: pi,
		Size:   s.cfg.MinUpdateSize + int(splitmix64(st)%uint64(s.cfg.MaxUpdateSize-s.cfg.MinUpdateSize+1)),
	}
	objDraw := splitmix64(st)
	if vis := s.visible[s.areaOf[pi]]; len(vis) > 0 {
		obj := vis[objDraw%uint64(len(vis))]
		u.CD = obj.Leaf
		u.Object = obj.ID
	} else {
		u.CD = s.pubCD[s.areaOf[pi]]
	}
	step := s.cfg.MinInterval
	if span := uint64(s.cfg.MaxInterval - s.cfg.MinInterval); span > 0 {
		step += time.Duration(splitmix64(st) % (span + 1))
	} else {
		splitmix64(st) // keep draw count fixed regardless of config
	}
	s.nextAt[pi] = at + step
	return u, true
}

// Materialize drains every player's stream into a sorted batch Trace — the
// small-scale escape hatch (tests, plots) and the equivalence oracle the
// stream suite checks against.
func (s *Stream) Materialize() *Trace {
	t := &Trace{
		Duration: s.cfg.Duration,
		Players:  append([]PlayerInfo(nil), s.players...),
	}
	for pi := range s.players {
		for {
			u, ok := s.Next(pi)
			if !ok {
				break
			}
			t.Updates = append(t.Updates, u)
		}
	}
	t.Sort()
	return t
}
