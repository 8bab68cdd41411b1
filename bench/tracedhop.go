package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/transport"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// tracedHop makes the same public calls transport.Daemon.Run makes — one
// Conn.ReadBurst per frame, core.Router.HandleBurst into an ndn.SliceSink on
// a single event loop, one Conn.WriteBurst per run of consecutive same-face
// actions — between real loopback sockets, and records a span around each.
// It is scaffolding: once the daemon carries these spans itself, the traced
// run reads them from there and this file goes.
type tracedHop struct {
	name   string
	router *core.Router
	ln     net.Listener
	epoch  time.Time

	mu       sync.Mutex
	faces    map[ndn.FaceID]*transport.Conn
	nextFace ndn.FaceID

	events chan hopEvent
	done   chan struct{}
	wg     sync.WaitGroup

	// Loop-owned: the action sink and flush scratch of the daemon, plus the
	// span log and the encode-replay buffer.
	sink   ndn.SliceSink
	tx     []*wire.Packet
	bursts []burstSpan
	writes []writeSpan
	encBuf []byte
}

type hopEvent struct {
	face   ndn.FaceID
	pkts   []*wire.Packet
	closed bool
	fn     func()

	// Stamps of the frame's read, in ns since the trace epoch.
	readable, readDone, enqueued, decodeNs int64
}

// burstSpan is one frame's passage through the hop. The spans are read
// (readable→readDone, child decode), queue (enqueued→dequeued), route
// (HandleBurst) and writes[wFrom:wTo]. The decode replay runs between
// readDone and enqueued and belongs to no span: it is tracing overhead.
type burstSpan struct {
	first                                *wire.Packet
	npkts                                int
	readable, readDone, enqueued, dequed int64
	routeStart, routeEnd, decodeNs       int64
	wFrom, wTo                           int
}

// writeSpan is one Conn.WriteBurst; encodeNs is its wire.AppendEncodeBurst
// child, measured by encoding the same packets again right after the write.
type writeSpan struct {
	face       ndn.FaceID
	npkts      int
	start, end int64
	encodeNs   int64
}

func newTracedHop(name string, epoch time.Time) (*tracedHop, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	h := &tracedHop{
		name:   name,
		router: core.NewRouter(name),
		ln:     ln,
		epoch:  epoch,
		faces:  make(map[ndn.FaceID]*transport.Conn),
		events: make(chan hopEvent, 1024), // the daemon's event-queue depth
		done:   make(chan struct{}),
	}
	return h, ln.Addr().String(), nil
}

// startTracedHops is startDaemons for traced hops.
func startTracedHops(n int) (hops []hop, traced []*tracedHop, addrs []string, stop func(), err error) {
	epoch := time.Now()
	stop = func() {
		for _, h := range traced {
			h.stop()
		}
	}
	for i := 0; i < n; i++ {
		h, addr, herr := newTracedHop(fmt.Sprintf("T%d", i), epoch)
		if herr != nil {
			stop()
			return nil, nil, nil, nil, herr
		}
		h.wg.Add(2)
		go h.acceptLoop()
		go h.run()
		hops = append(hops, h)
		traced = append(traced, h)
		addrs = append(addrs, addr)
	}
	return hops, traced, addrs, stop, nil
}

func (h *tracedHop) since() int64 { return int64(time.Since(h.epoch)) }

func (h *tracedHop) stop() {
	close(h.done)
	h.ln.Close() //nolint:errcheck // shutdown path
	h.mu.Lock()
	for _, c := range h.faces {
		c.Close() //nolint:errcheck // shutdown path
	}
	h.mu.Unlock()
	h.wg.Wait()
}

func (h *tracedHop) enqueue(ev hopEvent) bool {
	select {
	case h.events <- ev:
		return true
	case <-h.done:
		return false
	}
}

// Inspect runs fn on the hop's loop, like transport.Daemon.Inspect.
func (h *tracedHop) Inspect(fn func(r *core.Router)) {
	done := make(chan struct{})
	if !h.enqueue(hopEvent{fn: func() { fn(h.router); close(done) }}) {
		return
	}
	select {
	case <-done:
	case <-h.done:
	}
}

func (h *tracedHop) BecomeRP(info copss.RPInfo) error {
	errc := make(chan error, 1)
	h.enqueue(hopEvent{fn: func() {
		h.sink.Reset()
		err := h.router.BecomeRPTo(info, &h.sink)
		if err == nil {
			h.dispatch(nil)
		}
		errc <- err
	}})
	select {
	case err := <-errc:
		return err
	case <-h.done:
		return fmt.Errorf("traced hop %s stopped", h.name)
	}
}

func (h *tracedHop) ConnectRouter(addr string) error {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	sc, err := newStampConn(nc)
	if err != nil {
		return err
	}
	conn := transport.NewConn(sc)
	if err := conn.SendHello(transport.PeerRouter, h.name); err != nil {
		conn.Close() //nolint:errcheck // already failing
		return err
	}
	h.enqueue(hopEvent{fn: func() { h.addFace(conn, sc, core.FaceRouter) }})
	return nil
}

func (h *tracedHop) acceptLoop() {
	defer h.wg.Done()
	for {
		nc, err := h.ln.Accept()
		if err != nil {
			return
		}
		sc, err := newStampConn(nc)
		if err != nil {
			nc.Close() //nolint:errcheck // already failing
			continue
		}
		conn := transport.NewConn(sc)
		kind, _, err := conn.ReadHello(5 * time.Second)
		if err != nil {
			conn.Close() //nolint:errcheck // already failing
			continue
		}
		fk := core.FaceClient
		if kind == transport.PeerRouter {
			fk = core.FaceRouter
		}
		if !h.enqueue(hopEvent{fn: func() { h.addFace(conn, sc, fk) }}) {
			conn.Close() //nolint:errcheck // shutting down
			return
		}
	}
}

func (h *tracedHop) addFace(conn *transport.Conn, sc *stampConn, kind core.FaceKind) {
	h.mu.Lock()
	h.nextFace++
	id := h.nextFace
	h.faces[id] = conn
	h.mu.Unlock()
	h.router.AddFace(id, kind)
	h.wg.Add(1)
	go h.readLoop(id, conn, sc)
}

func (h *tracedHop) readLoop(id ndn.FaceID, conn *transport.Conn, sc *stampConn) {
	defer h.wg.Done()
	var scratch []byte
	for {
		sc.arm()
		pkts, err := conn.ReadBurst(nil)
		readDone := h.since()
		if err != nil {
			h.enqueue(hopEvent{face: id, closed: true})
			return
		}
		ev := hopEvent{face: id, pkts: pkts, readable: int64(sc.readable.Sub(h.epoch)), readDone: readDone}
		ev.decodeNs, scratch = replayDecode(scratch, pkts)
		ev.enqueued = h.since()
		if !h.enqueue(ev) {
			return
		}
	}
}

// replayDecode times wire.Decode over the bytes the frame just read was made
// of (re-encoded, which yields them exactly).
func replayDecode(scratch []byte, pkts []*wire.Packet) (int64, []byte) {
	body, err := wire.AppendEncodeBurst(scratch[:0], pkts)
	if err != nil {
		return 0, scratch
	}
	t0 := time.Now()
	for rest := body; len(rest) > 0; {
		_, n, err := wire.Decode(rest)
		if err != nil {
			break
		}
		rest = rest[n:]
	}
	return int64(time.Since(t0)), body
}

func (h *tracedHop) run() {
	defer h.wg.Done()
	tick := time.NewTicker(transport.DefaultTickInterval)
	defer tick.Stop()
	for {
		select {
		case <-h.done:
			return
		case now := <-tick.C:
			h.sink.Reset()
			h.router.TickTo(now, &h.sink)
			h.dispatch(nil)
		case ev := <-h.events:
			switch {
			case ev.fn != nil:
				ev.fn()
			case ev.closed:
				h.dropFace(ev.face)
			default:
				b := burstSpan{first: ev.pkts[0], npkts: len(ev.pkts),
					readable: ev.readable, readDone: ev.readDone, enqueued: ev.enqueued,
					decodeNs: ev.decodeNs, dequed: h.since()}
				h.sink.Reset()
				now := time.Now()
				b.routeStart = int64(now.Sub(h.epoch))
				h.router.HandleBurst(now, ev.face, ev.pkts, &h.sink)
				b.routeEnd = h.since()
				h.dispatch(&b)
				h.bursts = append(h.bursts, b)
			}
		}
	}
}

// dispatch flushes the sink with transport.Daemon.dispatch's grouping rule:
// consecutive actions for one face leave as one burst frame.
func (h *tracedHop) dispatch(b *burstSpan) {
	actions := h.sink.Actions
	if b != nil {
		b.wFrom = len(h.writes)
	}
	for i := 0; i < len(actions); {
		face := actions[i].Face
		tx := h.tx[:0]
		for ; i < len(actions) && actions[i].Face == face; i++ {
			tx = append(tx, actions[i].Packet)
		}
		h.tx = tx[:0]
		h.mu.Lock()
		conn := h.faces[face]
		h.mu.Unlock()
		if conn == nil {
			continue
		}
		w := writeSpan{face: face, npkts: len(tx), start: h.since()}
		err := conn.WriteBurst(tx)
		w.end = h.since()
		if err != nil {
			h.dropFace(face)
			continue
		}
		t0 := time.Now()
		if enc, err := wire.AppendEncodeBurst(h.encBuf[:0], tx); err == nil {
			h.encBuf = enc[:0]
			w.encodeNs = int64(time.Since(t0))
		}
		h.writes = append(h.writes, w)
	}
	if b != nil {
		b.wTo = len(h.writes)
	}
}

func (h *tracedHop) dropFace(id ndn.FaceID) {
	h.mu.Lock()
	conn := h.faces[id]
	delete(h.faces, id)
	h.mu.Unlock()
	if conn == nil {
		return
	}
	conn.Close() //nolint:errcheck // already dropping
	h.router.RemoveFace(id)
}

// stampConn notes when the frame transport.Conn is about to read became
// readable, so the read span starts when there was something to read and not
// when the reader began to wait for it.
type stampConn struct {
	net.Conn
	raw      syscall.RawConn
	armed    bool
	readable time.Time
}

func newStampConn(nc net.Conn) (*stampConn, error) {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return nil, fmt.Errorf("%T has no raw connection", nc)
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return nil, err
	}
	return &stampConn{Conn: nc, raw: raw}, nil
}

// arm makes the next Read a frame's first.
func (c *stampConn) arm() { c.armed = true }

func (c *stampConn) Read(p []byte) (int, error) {
	if c.armed {
		c.armed = false
		var one [1]byte
		// Peek without consuming: RawConn.Read parks on the poller until
		// the callback reports something other than "would block".
		err := c.raw.Read(func(fd uintptr) bool {
			_, _, err := syscall.Recvfrom(int(fd), one[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
			return err != syscall.EAGAIN
		})
		if err != nil {
			return 0, err
		}
		c.readable = time.Now()
	}
	return c.Conn.Read(p)
}

// hopProfile is what one traced hop's spans say about its layers.
type hopProfile struct {
	bursts, pktsIn, pktsOut, frames int

	readSelfNs, decodeNs, routeNs float64 // per packet in
	writeSelfNs, encodeNs         float64 // per packet out
	writeNsPerFrame               float64
	queueP50Us                    float64
	// transitP50Us is, over the packets the hop wrote, the median of the
	// spans between a packet's frame becoming readable and the end of the
	// write that carried it on.
	transitP50Us float64
}

// profile summarizes the spans recorded after ns `from` (the phase start).
// Call it only once the hop has stopped.
func (h *tracedHop) profile(from int64) hopProfile {
	var p hopProfile
	var read, dec, route, wr, enc float64
	var queue, transit []float64
	for _, b := range h.bursts {
		if b.readable < from {
			continue
		}
		p.bursts++
		p.pktsIn += b.npkts
		read += float64(b.readDone - b.readable)
		dec += float64(b.decodeNs)
		route += float64(b.routeEnd - b.routeStart)
		q := float64(b.dequed - b.enqueued)
		queue = append(queue, q/1e3)
		work := float64(b.readDone-b.readable) + float64(b.routeEnd-b.routeStart)
		for _, w := range h.writes[b.wFrom:b.wTo] {
			p.frames++
			p.pktsOut += w.npkts
			wr += float64(w.end - w.start)
			enc += float64(w.encodeNs)
			work += float64(w.end - w.start)
			for k := 0; k < w.npkts; k++ {
				transit = append(transit, (work+q)/1e3)
			}
		}
	}
	if p.pktsIn > 0 {
		n := float64(p.pktsIn)
		p.readSelfNs, p.decodeNs, p.routeNs = (read-dec)/n, dec/n, route/n
	}
	if p.pktsOut > 0 {
		n := float64(p.pktsOut)
		p.writeSelfNs, p.encodeNs = (wr-enc)/n, enc/n
		p.writeNsPerFrame = wr / float64(p.frames)
	}
	sort.Float64s(queue)
	sort.Float64s(transit)
	p.queueP50Us = percentile(queue, 0.5)
	p.transitP50Us = percentile(transit, 0.5)
	return p
}

// chromeEvent is one record of the Chrome trace-event format, the format
// gcopssd's /debug/trace serves.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// maxTraceBursts bounds how many frames per hop go into the trace file; the
// metrics use every span, the file is for looking at.
const maxTraceBursts = 400

// writeChromeTrace writes the first spans after ns `from` of every hop as one
// Chrome trace: a process per hop, thread 0 its readers, thread 1 its loop.
func writeChromeTrace(path string, hops []*tracedHop, from int64) error {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	evs := []chromeEvent{}
	span := func(pid, tid int, name, parent string, start, end int64, pkt string) {
		if end < start {
			end = start
		}
		evs = append(evs, chromeEvent{Name: name, Ph: "X", Ts: us(start), Dur: us(end - start),
			Pid: pid, Tid: tid, Args: map[string]any{"parent": parent, "publish": pkt}})
	}
	for pid, h := range hops {
		evs = append(evs,
			chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": h.name}},
			chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: 0, Args: map[string]any{"name": "face readers"}},
			chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: 1, Args: map[string]any{"name": "event loop"}})
		n := 0
		for _, b := range h.bursts {
			if b.readable < from {
				continue
			}
			if n++; n > maxTraceBursts {
				break
			}
			id := publishID(b.first)
			span(pid, 0, "transport.ReadBurst", "", b.readable, b.readDone, id)
			span(pid, 0, "wire.Decode", "transport.ReadBurst", b.readDone-b.decodeNs, b.readDone, id)
			span(pid, 1, "queue", "", b.enqueued, b.dequed, id)
			span(pid, 1, "core.HandleBurst", "", b.routeStart, b.routeEnd, id)
			for _, w := range h.writes[b.wFrom:b.wTo] {
				span(pid, 1, "transport.WriteBurst", "", w.start, w.end, id)
				span(pid, 1, "wire.AppendEncodeBurst", "transport.WriteBurst", w.start, min(w.start+w.encodeNs, w.end), id)
			}
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// publishID names the publish a span belongs to: origin/seq where the packet
// carries them, the encapsulating Interest's name (which ends in the origin
// and the first hop's publish counter) between the first hop and the RP.
func publishID(p *wire.Packet) string {
	if p.Origin != "" || p.Seq != 0 {
		return fmt.Sprintf("%s/%d", p.Origin, p.Seq)
	}
	return p.Type.String() + " " + p.Name
}
