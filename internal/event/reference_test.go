package event

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refEvent is one event of the reference workload. Node events carry a
// canonical key and a shard; global events order by insertion sequence.
type refEvent struct {
	at     time.Time
	global bool
	key    uint64 // node: the event's id; global: insertion sequence
	id     uint64
	shard  int
}

// refWorld is the workload both executors run: a seeded set of root events
// whose children are a pure function of (seed, parent id), so the two
// executors generate the same events whatever order they run them in.
// Children of a node event land on its own shard (any delay ≥ 0) and on
// another shard (≥ the matrix latency); a global event posts one node event,
// possibly at its own instant. Delays are whole milliseconds so timestamp
// ties — between keys, and between global and node events — are common.
type refWorld struct {
	seed   int64
	shards int
	m      [][]time.Duration
}

const refMaxID = 1 << 28 // ids grow two bits per generation from 1<<20: four generations

func (w *refWorld) children(ev refEvent) []refEvent {
	if ev.id >= refMaxID {
		return nil
	}
	r := rand.New(rand.NewSource(w.seed ^ int64(ev.id)))
	child := func(c uint64, shard int, delay time.Duration) refEvent {
		id := ev.id<<2 | c
		return refEvent{at: ev.at.Add(delay), key: id, id: id, shard: shard}
	}
	if ev.global {
		return []refEvent{child(1, r.Intn(w.shards), ms(int64(r.Intn(3))))}
	}
	out := []refEvent{child(1, ev.shard, ms(int64(r.Intn(4))))}
	if dst := r.Intn(w.shards); dst != ev.shard {
		out = append(out, child(2, dst, w.m[ev.shard][dst]+ms(int64(r.Intn(3)))))
	}
	return out
}

func (w *refWorld) roots() []refEvent {
	r := rand.New(rand.NewSource(w.seed))
	var out []refEvent
	for i := uint64(0); i < 40; i++ {
		id := 1<<20 + i
		ev := refEvent{at: laOrigin.Add(ms(int64(r.Intn(20)))), key: id, id: id, shard: r.Intn(w.shards)}
		ev.global = i%4 == 0
		out = append(out, ev)
	}
	return out
}

// refLog is what an execution leaves behind: each shard's node events in the
// order they ran, and the global events in the order they ran, each with the
// number of node events that had run before it. Together they pin the
// canonical order up to the interleaving of concurrently executing shards,
// which is not observable; with one shard they pin all of it.
type refLog struct {
	shard  [][]uint64
	global []string
}

func (l *refLog) nodeCount() (n int) {
	for _, s := range l.shard {
		n += len(s)
	}
	return n
}

func (l *refLog) record(ev refEvent) {
	if ev.global {
		l.global = append(l.global, fmt.Sprintf("%d@%d after %d", ev.id, ev.at.UnixNano(), l.nodeCount()))
		return
	}
	l.shard[ev.shard] = append(l.shard[ev.shard], ev.id)
}

// strictMerge is the reference executor: one pending list, always running
// the minimum under (time, global-first, key).
func strictMerge(w *refWorld) *refLog {
	log := &refLog{shard: make([][]uint64, w.shards)}
	var seq uint64
	var pending []refEvent
	add := func(evs []refEvent) {
		for _, ev := range evs {
			if ev.global {
				seq++
				ev.key = seq
			}
			pending = append(pending, ev)
		}
	}
	add(w.roots())
	for len(pending) > 0 {
		sort.Slice(pending, func(i, j int) bool {
			a, b := pending[i], pending[j]
			if !a.at.Equal(b.at) {
				return a.at.Before(b.at)
			}
			if a.global != b.global {
				return a.global
			}
			return a.key < b.key
		})
		ev := pending[0]
		pending = pending[1:]
		log.record(ev)
		add(w.children(ev))
	}
	return log
}

// runSharded executes the same workload on a ShardedScheduler.
func runSharded(t *testing.T, w *refWorld) *refLog {
	s := NewSharded(laOrigin, w.shards)
	if err := s.SetLatencyMatrix(w.m); err != nil {
		t.Fatalf("SetLatencyMatrix: %v", err)
	}
	log := &refLog{shard: make([][]uint64, w.shards)}
	var post func(src int, ev refEvent)
	run := func(ev refEvent) {
		log.record(ev)
		for _, c := range w.children(ev) {
			post(ev.shard, c)
		}
	}
	post = func(src int, ev refEvent) {
		if ev.global {
			s.At(ev.at, func(time.Time) { run(ev) })
			return
		}
		if src < 0 {
			src = ev.shard // posted from the global phase
		}
		s.PostNode(src, ev.shard, ev.at, ev.key, func(time.Time, Payload) { run(ev) }, Payload{})
	}
	for _, ev := range w.roots() {
		post(-1, ev)
	}
	s.RunUntil(laOrigin.Add(time.Hour))
	if s.Pending() != 0 {
		t.Fatalf("%d events still pending", s.Pending())
	}
	return log
}

// TestShardedMatchesStrictMerge: at 1, 2 and 4 shards the scheduler executes
// a seeded random event set — global events, node events, node events posting
// to their own and to other shards — in exactly the order of a strict merge
// by (time, global-first, key).
func TestShardedMatchesStrictMerge(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			r := rand.New(rand.NewSource(seed * 977))
			w := &refWorld{seed: seed, shards: shards, m: make([][]time.Duration, shards)}
			for i := range w.m {
				w.m[i] = make([]time.Duration, shards)
				for j := range w.m[i] {
					w.m[i][j] = ms(int64(1 + r.Intn(5)))
				}
			}
			want, got := strictMerge(w), runSharded(t, w)
			if want.nodeCount() < 100 || len(want.global) < 10 {
				t.Fatalf("workload too small to mean anything: %d node, %d global events", want.nodeCount(), len(want.global))
			}
			if fmt.Sprint(got.global) != fmt.Sprint(want.global) {
				t.Errorf("shards=%d seed=%d: global events\n got %v\nwant %v", shards, seed, got.global, want.global)
			}
			for i := range want.shard {
				if fmt.Sprint(got.shard[i]) != fmt.Sprint(want.shard[i]) {
					t.Errorf("shards=%d seed=%d: shard %d ran\n got %v\nwant %v", shards, seed, i, got.shard[i], want.shard[i])
				}
			}
		}
	}
}

// TestUndeclaredRoutePostPanics: a cross-shard post during a window over a
// pair the matrix does not connect is a host bug the scheduler refuses,
// whether the host installed a matrix without the pair or none at all.
func TestUndeclaredRoutePostPanics(t *testing.T) {
	oneWay := func(s *ShardedScheduler) error {
		return s.SetLatencyMatrix([][]time.Duration{{ms(1), NoRoute}, {ms(1), ms(1)}})
	}
	for name, declare := range map[string]func(*ShardedScheduler) error{
		"pair left out of the matrix": oneWay,
		"no matrix installed":         func(*ShardedScheduler) error { return nil },
	} {
		t.Run(name, func(t *testing.T) {
			s := NewSharded(laOrigin, 2)
			if err := declare(s); err != nil {
				t.Fatal(err)
			}
			// Shard 0 is the coordinator's, so the panic surfaces on this goroutine.
			s.PostNode(0, 0, laOrigin.Add(ms(1)), 1, func(now time.Time, _ Payload) {
				s.PostNode(0, 1, now.Add(ms(1)), 2, noopCall, Payload{})
			}, Payload{})
			defer func() {
				if got := recover(); got != undeclaredRoute {
					t.Errorf("recovered %v, want the undeclared-route panic", got)
				}
			}()
			s.RunUntil(laOrigin.Add(ms(10)))
			t.Error("RunUntil returned: the undeclared post was accepted")
		})
	}
}
