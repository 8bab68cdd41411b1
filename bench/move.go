package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/icn-gaming/gcopss/internal/broker"
	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/transport"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// live-move: players changing zone. A broker on the first hop serves
// snapshots of all 25 zones; each mover on the last hop repeats Unsubscribe
// (old zone), Subscribe (new zone) and a query-response snapshot fetch of the
// new zone, waiting for the snapshot before it moves again (closed loop),
// while a publisher keeps live updates flowing to every zone.
const (
	moverCount     = 2
	objectsPerZone = 64 // 25 × 64 = 1 600 snapshot names against the 1 024-entry content store
	moveBgWidth    = 2  // live updates per tick: a quarter of live-fanout's rate
	// staleAfter is how long after a mover wrote Unsubscribe an update for
	// the zone it left may still arrive (it was already in flight).
	staleAfter   = 50 * time.Millisecond
	moverTick    = 10 * time.Millisecond // how often a mover drives the fetch's retry timers
	moveBgOrigin = "bg"
)

type moveEnv struct {
	ch      *chain
	zones   []cd.CD // seeded order; movers walk it cyclically
	zoneIdx map[cd.CD]int

	brk       *broker.Broker
	brkClient *transport.Client
	brkDone   chan struct{}
	queryNs   int64 // time in Broker.HandlePacket, by packet kind
	queries   int64
	updateNs  int64
	updates   int64

	bg     *transport.Conn
	bgRnd  *rand.Rand
	bgSeq  uint64
	bgStop atomic.Bool

	movers    []*mover
	completed atomic.Int64 // moves completed by all movers, for the rate windows
}

type mover struct {
	env *moveEnv
	cl  *transport.Client
	rx  chan *wire.Packet // closed by receive when the connection ends

	// A mover walks its own stretch [lo, hi) of env.zones round and round.
	// Two movers sharing zones would find each other's snapshots in the
	// content stores whenever their laps happened to line up; apart, every
	// fetch misses at every hop, on every run.
	lo, hi     int
	pos        int         // index into env.zones of the current zone
	subscribed bool        // false until the first move
	unsubAt    []time.Time // per zone: when Unsubscribe was written; zero while subscribed or never visited

	moves, failedMoves int64
	stale              int64    // live updates for a zone left too long ago
	lat                *windows // ms from the first control write to fetch.Done()
	cwndSum            float64
	retrans, rounds    uint64
	err                error
}

// setupMove builds the chain, starts the broker and preloads every zone's
// snapshot, attaches the movers and walks each once round the world.
func setupMove(seed int64, traced bool, warmup int) (*moveEnv, []*tracedHop, error) {
	ch, ths, err := startChain(3, traced)
	if err != nil {
		return nil, nil, err
	}
	e := &moveEnv{ch: ch, zoneIdx: make(map[cd.CD]int), brkDone: make(chan struct{}),
		bgRnd: rand.New(rand.NewSource(seed*31 + 7))}
	e.zones = zoneLeaves()
	rand.New(rand.NewSource(seed)).Shuffle(len(e.zones), func(i, j int) { e.zones[i], e.zones[j] = e.zones[j], e.zones[i] })
	for i, z := range e.zones {
		e.zoneIdx[z] = i
	}
	if err := e.attach(); err != nil {
		e.teardown()
		return nil, nil, err
	}
	// One warm-up move per 800 warm-up publishes: the benchmark's 20 000
	// take each mover once round the 25 zones.
	n := int64(warmup / 800)
	if n < 1 {
		n = 1
	}
	if err := e.moveAll(func(m *mover) bool { return m.moves < n }, 0); err != nil {
		e.teardown()
		return nil, nil, err
	}
	return e, ths, nil
}

func (e *moveEnv) attach() error {
	var err error
	e.brk = broker.New("broker", e.zones)
	if e.brkClient, err = e.ch.client(0, "broker"); err != nil {
		close(e.brkDone)
		return err
	}
	go e.serve()
	subs := e.brk.SubscriptionCDs()
	if err := e.brkClient.Subscribe(subs...); err != nil {
		return err
	}
	if err := e.brkClient.AnnouncePrefix(broker.SnapshotPrefix, uint64(time.Now().UnixNano())); err != nil {
		return err
	}
	if err := e.ch.waitST(0, len(subs)); err != nil {
		return err
	}
	last := len(e.ch.hops) - 1
	err = waitFor("the last hop to learn the snapshot route", func() bool {
		return e.ch.probe(last, func(r *core.Router) bool {
			_, _, ok := r.NDN().FIB().Lookup(broker.SnapshotPrefix)
			return ok
		})
	})
	if err != nil {
		return err
	}

	if e.bg, err = e.ch.dial(0, moveBgOrigin); err != nil {
		return err
	}
	for obj := 0; obj < objectsPerZone; obj++ {
		frame := make([]*wire.Packet, len(e.zones))
		for z := range e.zones {
			frame[z] = e.update(z, obj)
		}
		if err := e.bg.WriteBurst(frame); err != nil {
			return err
		}
	}
	want := uint64(len(e.zones) * objectsPerZone)
	err = waitFor("the broker to hold every zone's snapshot", func() bool {
		applied, _, _ := e.brk.Stats()
		return applied >= want
	})
	if err != nil {
		return err
	}

	for i := 0; i < moverCount; i++ {
		cl, err := e.ch.client(last, fmt.Sprintf("mover%d", i))
		if err != nil {
			return err
		}
		m := &mover{env: e, cl: cl, rx: make(chan *wire.Packet, 256),
			lo: i * len(e.zones) / moverCount, hi: (i + 1) * len(e.zones) / moverCount,
			unsubAt: make([]time.Time, len(e.zones)), lat: newWindows(latencyWindows, 1<<10)}
		m.pos = m.hi - 1
		e.movers = append(e.movers, m)
		go m.receive()
	}
	return nil
}

// update is the next live update: object obj of zone z changes by a payload
// of the trace's update size.
func (e *moveEnv) update(z, obj int) *wire.Packet {
	e.bgSeq++
	body := make([]byte, 50+e.bgRnd.Intn(301))
	return &wire.Packet{Type: wire.TypeMulticast, CDs: []cd.CD{e.zones[z]}, Origin: moveBgOrigin, Seq: e.bgSeq,
		Payload: broker.EncodeUpdate(fmt.Sprintf("obj%02d", obj), body), SentAt: time.Now().UnixNano()}
}

// serve is the broker's client loop, as cmd/gbroker runs it, with a span
// around each Broker.HandlePacket.
func (e *moveEnv) serve() {
	defer close(e.brkDone)
	for {
		pkt, err := e.brkClient.Receive()
		if err != nil {
			return
		}
		t0 := time.Now()
		outs := e.brk.HandlePacket(pkt)
		dt := int64(time.Since(t0))
		if pkt.Type == wire.TypeInterest {
			e.queryNs += dt
			e.queries++
		} else {
			e.updateNs += dt
			e.updates++
		}
		for _, out := range outs {
			if err := e.brkClient.Send(out); err != nil {
				return
			}
		}
	}
}

// background publishes moveBgWidth live updates per tick, round-robin over
// the zones, until told to stop.
func (e *moveEnv) background() error {
	start := time.Now()
	for i := 0; !e.bgStop.Load(); i++ {
		waitUntil(start.Add(time.Duration(i) * tick))
		frame := make([]*wire.Packet, moveBgWidth)
		for k := range frame {
			n := i*moveBgWidth + k
			frame[k] = e.update(n%len(e.zones), e.bgRnd.Intn(objectsPerZone))
		}
		if err := e.bg.WriteBurst(frame); err != nil {
			return err
		}
	}
	return nil
}

func (m *mover) receive() {
	defer close(m.rx)
	for {
		pkt, err := m.cl.Receive()
		if err != nil {
			return
		}
		m.rx <- pkt
	}
}

func (m *mover) send(pkts []*wire.Packet) error {
	for _, p := range pkts {
		if err := m.cl.Send(p); err != nil {
			return err
		}
	}
	if len(pkts) > 0 {
		m.rounds++
	}
	return nil
}

// move takes the mover to the next zone of the lap and returns once the
// zone's snapshot is complete. phaseStart and span file the move's latency
// under its window; a zero span (warm-up) records none.
func (m *mover) move(phaseStart time.Time, span int64, retry *time.Ticker) error {
	e := m.env
	next := m.pos + 1
	if next == m.hi {
		next = m.lo
	}
	t0 := time.Now()
	if m.subscribed {
		if err := m.cl.Unsubscribe(e.zones[m.pos]); err != nil {
			return err
		}
		m.unsubAt[m.pos] = time.Now()
	}
	if err := m.cl.Subscribe(e.zones[next]); err != nil {
		return err
	}
	m.pos, m.subscribed, m.unsubAt[next] = next, true, time.Time{}

	fetch := broker.NewFetch(e.zones[next])
	if err := m.send(fetch.StartAt(time.Now())); err != nil {
		return err
	}
	for !fetch.Done() && !fetch.Failed() {
		select {
		case pkt, ok := <-m.rx:
			if !ok {
				return fmt.Errorf("mover: connection closed mid-fetch")
			}
			now := time.Now()
			switch pkt.Type {
			case wire.TypeData:
				follow, _ := fetch.HandleDataAt(now, pkt)
				if err := m.send(follow); err != nil {
					return err
				}
			case wire.TypeMulticast:
				m.liveUpdate(now, pkt)
			}
		case now := <-retry.C:
			if err := m.send(fetch.Tick(now)); err != nil {
				return err
			}
		}
	}
	m.moves++
	e.completed.Add(1)
	if fetch.Failed() || fetch.Received() != objectsPerZone {
		m.failedMoves++
	}
	m.cwndSum += float64(fetch.CWnd())
	m.retrans += fetch.Retransmissions()
	if span > 0 {
		m.lat.add(int64(t0.Sub(phaseStart)), span, float64(time.Since(t0))/1e6)
	}
	return nil
}

// liveUpdate checks a live update against the mover's subscriptions: it must
// be for the current zone, or for one left no longer than staleAfter ago.
func (m *mover) liveUpdate(now time.Time, pkt *wire.Packet) {
	z, ok := m.env.zoneIdx[pkt.CDs[0]]
	switch {
	case ok && m.subscribed && z == m.pos:
	case ok && !m.unsubAt[z].IsZero() && now.Sub(m.unsubAt[z]) <= staleAfter:
		// Already in flight when the Unsubscribe was written.
	default:
		m.stale++
	}
}

// moveAll has every mover move while more(m) holds, with the live updates
// flowing, and waits for them; length bounds the phase for the watchdog.
func (e *moveEnv) moveAll(more func(m *mover) bool, length time.Duration) error {
	start, span := time.Now(), int64(length)
	e.bgStop.Store(false)
	bgDone := make(chan error, 1)
	go func() { bgDone <- e.background() }()

	var wg sync.WaitGroup
	for _, m := range e.movers {
		wg.Add(1)
		go func(m *mover) {
			defer wg.Done()
			retry := time.NewTicker(moverTick)
			defer retry.Stop()
			for m.err == nil && more(m) {
				m.err = m.move(start, span, retry)
			}
		}(m)
	}
	var err error
	stalled := waitWithin(&wg, length+phaseTimeout, func() {
		for _, m := range e.movers {
			m.cl.Close() //nolint:errcheck // ends the fetch the mover is stuck in
		}
	})
	if stalled {
		err = fmt.Errorf("live-move: movers stalled")
	}
	e.bgStop.Store(true)
	if bgErr := <-bgDone; err == nil {
		err = bgErr
	}
	for _, m := range e.movers {
		if err == nil {
			err = m.err
		}
	}
	return err
}

// teardown closes every client and stops the chain; the broker's and the
// movers' state may be read once it returns.
func (e *moveEnv) teardown() {
	for _, m := range e.movers {
		m.cl.Close()     //nolint:errcheck // teardown
		for range m.rx { // until receive has seen the close
		}
	}
	if e.bg != nil {
		e.bg.Close() //nolint:errcheck // teardown
	}
	if e.brkClient != nil {
		e.brkClient.Close() //nolint:errcheck // teardown
	}
	<-e.brkDone
	e.ch.stop()
}

// moveMeasure is what one measured phase of live-move yields.
type moveMeasure struct {
	moves, failedMoves, stale int64
	movesPerS                 float64 // of the quiet windows
	wall                      time.Duration
	lat                       *windows // ms per move
	before, after             procSnap
	cwndMean, roundsPerMove   float64
	retrans                   uint64
	pitMean, csHitFrac        float64
	queryNs, updateNs         float64 // per Broker.HandlePacket call
	stats0, stats1            core.Stats
}

type moverTotals struct {
	moves, failed, stale int64
	cwndSum              float64
	retrans, rounds      uint64
}

func (e *moveEnv) totals() (t moverTotals) {
	for _, m := range e.movers {
		t.moves += m.moves
		t.failed += m.failedMoves
		t.stale += m.stale
		t.cwndSum += m.cwndSum
		t.retrans += m.retrans
		t.rounds += m.rounds
	}
	return t
}

// ndnTotals sums the NDN engines' Interest and cache-hit counters and the
// PIT sizes over the chain.
func (e *moveEnv) ndnTotals() (interests, hits uint64, pit int) {
	for i := range e.ch.hops {
		e.ch.hops[i].Inspect(func(r *core.Router) {
			s := r.NDN().Stats()
			interests += s.InterestsReceived
			hits += s.CacheHits
			pit += r.NDN().PendingInterests()
		})
	}
	return interests, hits, pit
}

// measure runs the movers for length and tears the chain down.
func (e *moveEnv) measure(length time.Duration) (*moveMeasure, error) {
	m := &moveMeasure{before: snapProcess(), stats0: e.ch.routerStats()}
	base := e.totals()
	int0, hit0, _ := e.ndnTotals()

	// A look at the PITs per window while the movers run.
	var pitSum, pitLooks int
	stopPIT := every(length/latencyWindows+1, func() {
		_, _, pit := e.ndnTotals()
		pitSum += pit
		pitLooks++
	})

	var rate rateWindows
	stopRate := every(length/rateWindowCount, func() { rate.sample(uint64(e.completed.Load())) })
	t0 := time.Now()
	end := t0.Add(length)
	err := e.moveAll(func(*mover) bool { return time.Now().Before(end) }, length)
	m.wall = time.Since(t0)
	stopRate()
	m.movesPerS = rate.perSecond()
	stopPIT()
	if err != nil {
		e.teardown()
		return nil, err
	}
	m.after, m.stats1 = snapProcess(), e.ch.routerStats()
	int1, hit1, _ := e.ndnTotals()
	e.teardown()

	t := e.totals()
	m.moves, m.failedMoves, m.stale = t.moves-base.moves, t.failed-base.failed, t.stale-base.stale
	m.retrans = t.retrans - base.retrans
	if m.moves > 0 {
		m.cwndMean = (t.cwndSum - base.cwndSum) / float64(m.moves)
		m.roundsPerMove = float64(t.rounds-base.rounds) / float64(m.moves)
	}
	if pitLooks > 0 {
		m.pitMean = float64(pitSum) / float64(pitLooks)
	}
	if int1 > int0 {
		m.csHitFrac = float64(hit1-hit0) / float64(int1-int0)
	}
	if e.queries > 0 {
		m.queryNs = float64(e.queryNs) / float64(e.queries)
	}
	if e.updates > 0 {
		m.updateNs = float64(e.updateNs) / float64(e.updates)
	}
	m.lat = newWindows(latencyWindows, 0)
	for _, mv := range e.movers {
		m.lat.merge(mv.lat)
	}
	return m, nil
}

func (r *result) checkMoves(what string, m *moveMeasure) {
	r.Attempted += m.moves
	r.Failed += m.failedMoves + m.stale
	if m.failedMoves+m.stale != 0 {
		r.problem("%s: of %d moves %d fetched no complete snapshot; %d live updates arrived for a zone left more than %v before",
			what, m.moves, m.failedMoves, m.stale, staleAfter)
	}
	if m.moves == 0 {
		r.problem("%s: no move completed", what)
	}
}

// runMove is the untraced run of live-move.
func runMove(cfg runConfig) (*result, error) {
	res := newResult(endToEnd)
	var env *moveEnv
	setupS, err := repeatSetup(cfg.setups, func() (func(), error) {
		e, _, err := setupMove(cfg.seed, false, cfg.warmup)
		if err != nil {
			return nil, err
		}
		env = e
		return e.teardown, nil
	})
	if err != nil {
		return nil, err
	}
	m, err := env.measure(cfg.span(1))
	if err != nil {
		return nil, err
	}
	res.checkMoves("live-move", m)
	q := m.lat.quantiles(0.5, 0.95)
	res.set("setup_s", setupS)
	res.set("latency_p50_us", q[0]*1e3)
	res.set("latency_p95_us", q[1]*1e3)
	res.set("ops_per_s", m.movesPerS)
	res.set("allocs_per_op", float64(m.after.mem.Mallocs-m.before.mem.Mallocs)/float64(m.moves))
	res.set("alloc_bytes_per_op", float64(m.after.mem.TotalAlloc-m.before.mem.TotalAlloc)/float64(m.moves))
	note("live-move: loopback TCP, one process, GOMAXPROCS=%d; %d moves timed in %d windows", maxProcs(), m.lat.count(), latencyWindows)
	return res, nil
}

// Traced-run shares of live-move's measured seconds.
const (
	tracedMoveReal  = 0.5
	tracedMoveChain = 0.3
)

// runMoveTraced is the traced run of live-move.
func runMoveTraced(cfg runConfig) (*result, error) {
	res := newResult(perLayer)
	env, _, err := setupMove(cfg.seed, false, cfg.warmup)
	if err != nil {
		return nil, err
	}
	connSetup := median(env.ch.connSetup)
	real, err := env.measure(cfg.span(tracedMoveReal))
	if err != nil {
		return nil, err
	}
	res.checkMoves("live-move (real)", real)
	res.setRouterStats(real.stats0, real.stats1)
	res.set("live.latency_p99_us", real.lat.quantiles(0.99)[0]*1e3)
	res.set("transport.conn_setup_ms", connSetup)
	res.set("ndn.cs_hit_frac", real.csHitFrac)
	res.set("ndn.pit_entries", real.pitMean)
	res.set("broker.query_ns", real.queryNs)
	res.set("broker.update_ns", real.updateNs)
	res.set("flowctl.qr_cwnd_mean", real.cwndMean)
	res.set("flowctl.qr_retrans", float64(real.retrans))
	res.set("flowctl.qr_rounds", real.roundsPerMove)
	res.set("process.cpu_us_per_delivery", float64(real.after.cpu-real.before.cpu)/1e3/float64(real.moves))
	res.set("process.heap_peak_mb", float64(real.after.mem.HeapSys)/(1<<20))
	res.set("process.gc_pause_ms", float64(real.after.mem.PauseTotalNs-real.before.mem.PauseTotalNs)/1e6)

	env, hops, err := setupMove(cfg.seed, true, cfg.warmup)
	if err != nil {
		return nil, err
	}
	from := hops[0].since()
	traced, err := env.measure(cfg.span(tracedMoveChain))
	if err != nil {
		return nil, err
	}
	res.checkMoves("live-move (traced hops)", traced)
	path := filepath.Join(cfg.outDir, "live-move.trace.json")
	if err := writeChromeTrace(path, hops, from); err != nil {
		return nil, err
	}
	note("live-move: Chrome trace written to %s", path)
	last := hops[len(hops)-1].profile(from)
	res.setHopProfile(last)
	res.set("process.trace_overhead_frac", 1-traced.movesPerS/real.movesPerS)

	replayNDN(env.zones, res)
	if err := replaySubscribe(env.zones, res); err != nil {
		return nil, err
	}
	return res, nil
}
