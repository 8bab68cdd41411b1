package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/transport"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// liveSpec is a data-plane workload over the live chain: who publishes what
// to whom. Rates and sizes are constants of the benchmark, never scaled by
// host.
type liveSpec struct {
	name          string
	publishers    int
	framesPerTick int // frames each publisher writes per tick of the paced phase
	frameWidth    int // packets per frame; 1 goes through Client.Publish
	cds           int
	subsPerCD     int
	payloadMin    int // bytes, uniform in [payloadMin, payloadMax]
	payloadMax    int
}

var (
	// One 8-packet frame per tick on one CD, eight subscribers: 8 000
	// publishes/s, 64 000 deliveries/s, the trace's update sizes.
	liveFanout = liveSpec{name: "live-fanout", publishers: 1, framesPerTick: 1, frameWidth: 8,
		cds: 1, subsPerCD: 8, payloadMin: 50, payloadMax: 350}
	// Ten single-packet frames per tick from each of two publishers over
	// eight CDs with one subscriber each: 20 000 publishes/s, fan-out 1,
	// the smallest payload so per-packet cost dominates.
	livePairs = liveSpec{name: "live-pairs", publishers: 2, framesPerTick: 10, frameWidth: 1,
		cds: 8, subsPerCD: 1, payloadMin: 32, payloadMax: 32}
)

const (
	tick           = time.Millisecond
	decoyEvery     = 64 // every 64th publish goes to a CD nobody subscribes to
	sendWindow     = 64 // publishes a closed-loop publisher keeps outstanding
	latencyWindows = 10
	// wakeMargin is how long before a due time the generator asks to be
	// woken: nanosleep overshoots by 70–190 µs on the reference host (the Go
	// timer by 600 µs when the process is otherwise idle).
	wakeMargin   = 120 * time.Microsecond
	phaseTimeout = 15 * time.Second // beyond a phase's own length, then it is stalled
)

// target is the CD index publish seq goes to, -1 for the decoy CD. It is the
// whole contract between publishers and checkers.
func (s liveSpec) target(seq uint64) int {
	if seq%decoyEvery == 0 {
		return -1
	}
	return int(seq % uint64(s.cds))
}

// pacedPhase tells subscribers which publishes belong to the open-loop phase
// and when each was due, so latency is timed from the tick's due time and
// nothing has to ride in the packets.
type pacedPhase struct {
	start   time.Time
	span    int64    // ns covered by the phase's ticks
	perTick uint64   // publishes per publisher per tick
	first   []uint64 // per publisher: first seq of the phase
	last    []uint64
}

type liveEnv struct {
	spec   liveSpec
	ch     *chain
	cds    []cd.CD // CDs in use, seeded order
	decoy  cd.CD
	pubs   []*publisher
	subs   []*subscriber
	phase  atomic.Pointer[pacedPhase]
	subsOf [][]*subscriber // per CD index
	abort  chan struct{}   // closed when a phase stalls; unblocks publishers
	stall  sync.Once
}

type publisher struct {
	env    *liveEnv
	idx    int
	name   string
	conn   *transport.Conn   // frameWidth > 1: one WriteBurst per frame
	client *transport.Client // frameWidth == 1: Client.Publish, as a player does
	rnd    *rand.Rand

	seq    uint64   // last sequence number published
	sentTo []uint64 // publishes so far per CD index

	frame   []wire.Packet
	ptrs    []*wire.Packet
	cdSlice [][]cd.CD // one-element CD slices, last is the decoy
	payload []byte

	waiting atomic.Bool
	credit  chan struct{}

	lateUs  []float64 // generator lateness per tick
	writeUs []float64 // time in the socket write per paced frame
	err     error
}

type subscriber struct {
	env   *liveEnv
	cdIdx int
	conn  *transport.Conn
	done  chan struct{}

	got   []atomic.Uint64 // deliveries received, per publisher
	check []seqCheck      // per publisher
	stray int64           // packets that are no known publisher's multicast for this CD

	frames, pkts int64
	lat          *windows
}

// setupLive builds a chain of `hops` routers (real daemons, or traced hops
// when traced is set), attaches the spec's subscribers to the last hop and
// its publishers to the first, and runs the count-based warm-up.
func setupLive(spec liveSpec, seed int64, hops int, traced bool, warmup int) (*liveEnv, []*tracedHop, error) {
	ch, ths, err := startChain(hops, traced)
	if err != nil {
		return nil, nil, err
	}
	env := &liveEnv{spec: spec, ch: ch, abort: make(chan struct{})}
	if err := env.attach(seed); err != nil {
		env.teardown()
		return nil, nil, err
	}
	if err := env.closedLoop(func(p *publisher) bool { return p.seq < uint64(warmup/spec.publishers) }, 0); err != nil {
		env.teardown()
		return nil, nil, err
	}
	return env, ths, nil
}

// chooseCDs picks, from a seeded shuffle of the world's zones, the CDs the
// workload publishes to and the decoy CD nobody subscribes to.
func (e *liveEnv) chooseCDs(seed int64) {
	zones := zoneLeaves()
	rand.New(rand.NewSource(seed)).Shuffle(len(zones), func(i, j int) { zones[i], zones[j] = zones[j], zones[i] })
	e.cds, e.decoy = zones[:e.spec.cds], zones[len(zones)-1]
}

func (e *liveEnv) attach(seed int64) error {
	e.chooseCDs(seed)
	// Publishers first: the subscribers' goroutines read e.pubs.
	for i := 0; i < e.spec.publishers; i++ {
		p := &publisher{env: e, idx: i, name: fmt.Sprintf("pub%d", i),
			rnd:     rand.New(rand.NewSource(seed*31 + int64(i) + 1)),
			sentTo:  make([]uint64, e.spec.cds),
			frame:   make([]wire.Packet, e.spec.frameWidth),
			ptrs:    make([]*wire.Packet, e.spec.frameWidth),
			payload: make([]byte, e.spec.payloadMax),
			credit:  make(chan struct{}, 1)}
		for _, c := range append(append([]cd.CD(nil), e.cds...), e.decoy) {
			p.cdSlice = append(p.cdSlice, []cd.CD{c})
		}
		var err error
		if e.spec.frameWidth == 1 {
			p.client, err = e.ch.client(0, p.name)
		} else {
			p.conn, err = e.ch.dial(0, p.name)
		}
		if err != nil {
			return err
		}
		e.pubs = append(e.pubs, p)
	}
	last := len(e.ch.hops) - 1
	e.subsOf = make([][]*subscriber, e.spec.cds)
	for c := 0; c < e.spec.cds; c++ {
		for k := 0; k < e.spec.subsPerCD; k++ {
			conn, err := e.ch.dial(last, fmt.Sprintf("sub%d", len(e.subs)))
			if err != nil {
				return err
			}
			s := &subscriber{env: e, cdIdx: c, conn: conn, done: make(chan struct{}),
				got:   make([]atomic.Uint64, e.spec.publishers),
				check: make([]seqCheck, e.spec.publishers),
				lat:   newWindows(latencyWindows, 1<<14)}
			e.subs = append(e.subs, s)
			e.subsOf[c] = append(e.subsOf[c], s)
			go s.run()
			if err := conn.WritePacket(&wire.Packet{Type: wire.TypeSubscribe, CDs: []cd.CD{e.cds[c]}}); err != nil {
				return err
			}
		}
	}
	if err := e.ch.waitST(last, len(e.subs)); err != nil {
		return err
	}
	if e.ch.rp != last {
		// The RP sees one aggregated subscription per CD from downstream.
		if err := e.ch.waitST(e.ch.rp, e.spec.cds); err != nil {
			return err
		}
	}
	return nil
}

// teardown closes every client and stops the chain; subscribers' state may be
// read once it returns.
func (e *liveEnv) teardown() {
	for _, p := range e.pubs {
		if p.conn != nil {
			p.conn.Close() //nolint:errcheck // teardown
		}
		if p.client != nil {
			p.client.Close() //nolint:errcheck // teardown
		}
	}
	for _, s := range e.subs {
		s.conn.Close() //nolint:errcheck // teardown
		<-s.done
	}
	e.ch.stop()
}

func originIndex(origin string) int {
	if len(origin) == 4 && origin[:3] == "pub" {
		return int(origin[3] - '0')
	}
	return -1
}

func (s *subscriber) run() {
	defer close(s.done)
	var pkts []*wire.Packet
	for {
		var err error
		pkts, err = s.conn.ReadBurst(pkts[:0])
		if err != nil {
			return // closed by teardown; a real loss shows up as missing deliveries
		}
		now := time.Now()
		ph := s.env.phase.Load()
		for _, p := range pkts {
			o := originIndex(p.Origin)
			if p.Type != wire.TypeMulticast || o < 0 || o >= len(s.got) ||
				len(p.CDs) != 1 || p.CDs[0] != s.env.cds[s.cdIdx] {
				s.stray++
				continue
			}
			s.check[o].observe(p.Seq)
			if ph != nil && p.Seq >= ph.first[o] && p.Seq <= ph.last[o] {
				due := int64((p.Seq-ph.first[o])/ph.perTick) * int64(tick)
				at := int64(now.Sub(ph.start))
				s.lat.add(due, ph.span, float64(at-due)/1e3)
			}
			s.got[o].Add(1) // last: publishes everything above to whoever reads the count
		}
		s.frames++
		s.pkts += int64(len(pkts))
		for _, p := range s.env.pubs {
			if p.waiting.Load() {
				select {
				case p.credit <- struct{}{}:
				default:
				}
			}
		}
	}
}

// emitFrame publishes the next frameWidth sequence numbers.
func (p *publisher) emitFrame() error {
	spec := p.env.spec
	for k := range p.frame {
		p.seq++
		c := spec.target(p.seq)
		if c < 0 {
			c = spec.cds
		} else {
			p.sentTo[c]++
		}
		size := spec.payloadMin + p.rnd.Intn(spec.payloadMax-spec.payloadMin+1)
		if p.client != nil { // frameWidth is 1: the frame is this one publish
			return p.client.Publish(p.cdSlice[c][0], p.seq, p.payload[:size])
		}
		p.frame[k] = wire.Packet{Type: wire.TypeMulticast, CDs: p.cdSlice[c], Origin: p.name,
			Seq: p.seq, Payload: p.payload[:size], SentAt: time.Now().UnixNano()}
		p.ptrs[k] = &p.frame[k]
	}
	return p.conn.WriteBurst(p.ptrs)
}

// outstanding is how many of this publisher's publishes have not yet reached
// every subscriber they are for.
func (p *publisher) outstanding() uint64 {
	var n uint64
	for c, sent := range p.sentTo {
		least := sent
		for _, s := range p.env.subsOf[c] {
			if g := s.got[p.idx].Load(); g < least {
				least = g
			}
		}
		n += sent - least
	}
	return n
}

// awaitWindow blocks until at most limit publishes are outstanding. It parks
// on a channel the subscribers poke; it never spins.
func (p *publisher) awaitWindow(limit uint64) error {
	for p.outstanding() > limit {
		p.waiting.Store(true)
		if p.outstanding() <= limit {
			p.waiting.Store(false)
			return nil
		}
		select {
		case <-p.credit:
		case <-p.env.abort:
			p.waiting.Store(false)
			return fmt.Errorf("%s: stalled with %d publishes outstanding", p.name, p.outstanding())
		}
		p.waiting.Store(false)
	}
	return nil
}

// waitUntil returns at due or as soon after as the host allows: nanosleep
// until wakeMargin before, then a plain busy loop. The loop must not yield:
// a goroutine that calls runtime.Gosched in a loop is always runnable, so its
// P never reaches the network poller, and the daemons' sockets are then only
// polled when the other P runs dry (live-pairs' median latency was 1.9 ms
// with a 200 µs yield loop, 4.5 ms with nothing but, 0.5 ms with this).
func waitUntil(due time.Time) {
	if d := time.Until(due) - wakeMargin; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake-up only lengthens the loop below
	}
	for time.Now().Before(due) {
	}
}

// waitWithin waits for wg, but no longer than limit before it calls abort
// (which must make the waited-for goroutines return) and goes on waiting. It
// reports whether it had to.
func waitWithin(wg *sync.WaitGroup, limit time.Duration, abort func()) (stalled bool) {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return false
	case <-time.After(limit):
		abort()
		<-done
		return true
	}
}

// forEachPublisher runs fn on every publisher concurrently and waits, but no
// longer than limit: then it aborts the publishers and reports a stall.
func (e *liveEnv) forEachPublisher(limit time.Duration, fn func(p *publisher) error) error {
	var wg sync.WaitGroup
	for _, p := range e.pubs {
		wg.Add(1)
		go func(p *publisher) {
			defer wg.Done()
			if err := fn(p); err != nil && p.err == nil {
				p.err = err
			}
		}(p)
	}
	waitWithin(&wg, limit, func() { e.stall.Do(func() { close(e.abort) }) })
	for _, p := range e.pubs {
		if p.err != nil {
			return p.err
		}
	}
	return nil
}

// closedLoop publishes while more(p) holds, each publisher keeping at most
// sendWindow publishes outstanding, then waits until everything sent has
// arrived. length bounds the phase for the stall watchdog.
func (e *liveEnv) closedLoop(more func(p *publisher) bool, length time.Duration) error {
	width := uint64(e.spec.frameWidth)
	return e.forEachPublisher(length+phaseTimeout, func(p *publisher) error {
		for more(p) {
			if err := p.awaitWindow(sendWindow - width); err != nil {
				return err
			}
			if err := p.emitFrame(); err != nil {
				return err
			}
		}
		return p.awaitWindow(0)
	})
}

// paced runs the open-loop phase: every publisher writes framesPerTick
// frames at each tick's due time whether or not earlier ones have arrived.
func (e *liveEnv) paced(length time.Duration) error {
	ticks := int(length / tick)
	perTick := uint64(e.spec.framesPerTick * e.spec.frameWidth)
	ph := &pacedPhase{start: time.Now().Add(2 * tick), span: int64(ticks) * int64(tick), perTick: perTick}
	for _, p := range e.pubs {
		ph.first = append(ph.first, p.seq+1)
		ph.last = append(ph.last, p.seq+uint64(ticks)*perTick)
	}
	e.phase.Store(ph)
	return e.forEachPublisher(length+phaseTimeout, func(p *publisher) error {
		for i := 0; i < ticks; i++ {
			due := ph.start.Add(time.Duration(i) * tick)
			waitUntil(due)
			t0 := time.Now()
			p.lateUs = append(p.lateUs, float64(t0.Sub(due))/1e3)
			for f := 0; f < e.spec.framesPerTick; f++ {
				if err := p.emitFrame(); err != nil {
					return err
				}
			}
			p.writeUs = append(p.writeUs, float64(time.Since(t0))/1e3/float64(e.spec.framesPerTick))
		}
		return p.awaitWindow(0)
	})
}

// received is the number of deliveries all subscribers have taken so far.
func (e *liveEnv) received() uint64 {
	var n uint64
	for _, s := range e.subs {
		for o := range s.got {
			n += s.got[o].Load()
		}
	}
	return n
}

// fence publishes one more frame per CD from every publisher and waits for
// it. Every path is FIFO, so once the fence has arrived anything the chain
// duplicated or misrouted earlier has arrived too; no drain sleep is needed.
func (e *liveEnv) fence() error {
	// Two rounds over the CDs, so a decoy's turn cannot leave one out.
	frames := (2*e.spec.cds + e.spec.frameWidth - 1) / e.spec.frameWidth
	return e.forEachPublisher(phaseTimeout, func(p *publisher) error {
		for i := 0; i < frames; i++ {
			if err := p.emitFrame(); err != nil {
				return err
			}
		}
		return p.awaitWindow(0)
	})
}

// verdict compares, after teardown, what every subscriber got with what the
// publishers sent.
func (e *liveEnv) verdict() (v seqVerdict) {
	for _, s := range e.subs {
		v.misdelivered += s.stray
		for o, p := range e.pubs {
			c := s.cdIdx
			v.add(s.check[o].verdict(p.seq, func(seq uint64) bool { return e.spec.target(seq) == c }))
		}
	}
	return v
}

// lateness returns the generator's lateness quantiles over all publishers.
func (e *liveEnv) lateness() (p50, p99 float64) {
	var all []float64
	for _, p := range e.pubs {
		all = append(all, p.lateUs...)
	}
	sort.Float64s(all)
	return percentile(all, 0.5), percentile(all, 0.99)
}
