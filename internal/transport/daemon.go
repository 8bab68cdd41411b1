package transport

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/faultnet"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/obs"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// Daemon liveness defaults.
const (
	// DefaultIdleTimeout is the per-frame read deadline on established
	// faces: a peer that stalls mid-frame (or goes silent) this long is
	// dropped instead of leaking its reader goroutine.
	DefaultIdleTimeout = 90 * time.Second
	// DefaultTickInterval drives the router's ARQ retransmission timers.
	DefaultTickInterval = 25 * time.Millisecond
	// reconnectAttempts/reconnectBackoff bound the re-dial loop for a lost
	// dialed-neighbor link (deterministic exponential backoff, no jitter).
	reconnectAttempts = 8
	reconnectBackoff  = 250 * time.Millisecond
)

// Daemon runs one G-COPSS router over TCP: every accepted or dialed
// connection becomes a face. All router state is owned by a single event
// loop; per-connection reader goroutines feed it.
type Daemon struct {
	name   string
	router *core.Router
	logf   func(format string, args ...interface{})

	ln net.Listener

	// mu guards the face table shared between the event loop and the
	// feeder/timer goroutines that resolve FaceIDs to connections.
	mu sync.Mutex
	// faces maps live face IDs to their connections.
	//
	//gcopss:guardedby mu
	faces map[ndn.FaceID]*Conn
	// neighbors remembers dialed-router addrs, for auto-reconnect.
	//
	//gcopss:guardedby mu
	neighbors map[ndn.FaceID]string
	// nextFace is the last face ID handed out.
	//
	//gcopss:guardedby mu
	nextFace ndn.FaceID

	idleTimeout  time.Duration
	tickInterval time.Duration
	faults       *faultnet.Injector
	reconnects   *obs.Counter

	events chan faceEvent
	done   chan struct{} // closed when Run exits; unblocks feeder goroutines
	wg     sync.WaitGroup

	// sink and tx are event-loop-owned scratch: the reused action sink every
	// router call on the loop emits into, and the per-flush packet collector
	// of dispatch. Only the Run loop touches them, so neither needs a lock.
	sink ndn.SliceSink
	tx   []*wire.Packet
}

type faceEvent struct {
	face   ndn.FaceID
	pkts   []*wire.Packet // burst arrival: one frame's worth of packets
	closed bool
	fn     func() // loop-executed command (face attach, RP setup)
}

// NewDaemon creates a daemon for a fresh router.
func NewDaemon(name string, opts ...core.Option) *Daemon {
	d := &Daemon{
		name:         name,
		router:       core.NewRouter(name, opts...),
		logf:         log.Printf,
		faces:        make(map[ndn.FaceID]*Conn),
		neighbors:    make(map[ndn.FaceID]string),
		idleTimeout:  DefaultIdleTimeout,
		tickInterval: DefaultTickInterval,
		events:       make(chan faceEvent, 1024),
		done:         make(chan struct{}),
	}
	d.Instrument(obs.NewRegistry())
	return d
}

// Instrument re-registers the daemon's counters on reg. Call before Run.
func (d *Daemon) Instrument(reg *obs.Registry) {
	d.reconnects = reg.Counter("reconnects_total")
}

// SetIdleTimeout overrides the per-frame read deadline applied to every
// face (tests shrink it; zero disables). Call before Run.
func (d *Daemon) SetIdleTimeout(t time.Duration) { d.idleTimeout = t }

// SetFaults installs a fault injector on the daemon's egress: every
// dispatched packet consults it and may be dropped, duplicated or delayed.
// The link key is "face<N>". Call before Run.
func (d *Daemon) SetFaults(in *faultnet.Injector) { d.faults = in }

// SetLogger replaces the daemon's log function (tests use a silent one).
func (d *Daemon) SetLogger(logf func(string, ...interface{})) { d.logf = logf }

// Router exposes the underlying router for configuration BEFORE Run starts.
// Once the daemon runs, the event loop owns all router state — use Inspect.
func (d *Daemon) Router() *core.Router { return d.router }

// Inspect runs fn on the daemon's event loop and waits for completion — the
// safe way to read or reconfigure router state while the daemon is running.
// Once Run has returned there is no loop: Inspect then returns without
// running fn.
func (d *Daemon) Inspect(fn func(r *core.Router)) {
	ran := make(chan struct{})
	if !d.enqueue(faceEvent{fn: func() {
		fn(d.router)
		close(ran)
	}}) {
		return
	}
	select {
	case <-ran:
	case <-d.done:
	}
}

// Listen binds the daemon's accept socket.
func (d *Daemon) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("daemon %s: listen: %w", d.name, err)
	}
	d.ln = ln
	return ln.Addr(), nil
}

// ConnectRouter dials a neighboring router and registers the link. The
// attachment is executed by the event loop, so it is safe to call while the
// daemon runs (the events channel buffers attachments queued before Run).
// The address is remembered: if the link later drops, the daemon re-dials it
// with bounded exponential backoff. After Run has returned it fails.
func (d *Daemon) ConnectRouter(addr string) error {
	conn, err := Dial(addr, PeerRouter, d.name, 5*time.Second)
	if err != nil {
		return err
	}
	if !d.enqueue(faceEvent{fn: func() {
		id := d.addFace(conn, core.FaceRouter)
		d.mu.Lock()
		d.neighbors[id] = addr
		d.mu.Unlock()
	}}) {
		conn.Close() //nolint:errcheck // shutting down
		return d.errStopped()
	}
	return nil
}

// reconnect re-dials a lost dialed-neighbor link in the background and, on
// success, attaches the fresh connection as a new router face. The remote
// router resynchronizes state over the new face (clients re-announce, ARQ
// entries for the dead face were discarded by RemoveFace).
func (d *Daemon) reconnect(addr string) {
	defer d.wg.Done()
	conn, err := DialRetry(addr, PeerRouter, d.name, 5*time.Second,
		reconnectAttempts, reconnectBackoff, d.done)
	if err != nil {
		d.logf("daemon %s: reconnect %s: %v", d.name, addr, err)
		return
	}
	ok := d.enqueue(faceEvent{fn: func() {
		id := d.addFace(conn, core.FaceRouter)
		d.mu.Lock()
		d.neighbors[id] = addr
		d.mu.Unlock()
		d.reconnects.Inc()
		d.logf("daemon %s: reconnected to %s as face %d", d.name, addr, id)
	}})
	if !ok {
		conn.Close() //nolint:errcheck // shutting down
	}
}

// addFace registers a connection and starts its reader. Must run on the
// event loop (all router mutations do).
func (d *Daemon) addFace(conn *Conn, kind core.FaceKind) ndn.FaceID {
	conn.SetIdleTimeout(d.idleTimeout)
	d.mu.Lock()
	d.nextFace++
	id := d.nextFace
	d.faces[id] = conn
	d.mu.Unlock()
	d.router.AddFace(id, kind)
	d.wg.Add(1)
	go d.readLoop(id, conn)
	return id
}

func (d *Daemon) readLoop(id ndn.FaceID, conn *Conn) {
	defer d.wg.Done()
	for {
		// One frame = one burst: everything the peer flushed together is
		// handed to the router as one HandleBurst call sharing one arrival
		// time, which is exactly right — the packets shared one syscall.
		pkts, err := conn.ReadBurst(nil)
		if err != nil {
			d.enqueue(faceEvent{face: id, closed: true})
			return
		}
		if !d.enqueue(faceEvent{face: id, pkts: pkts}) {
			return
		}
	}
}

// enqueue delivers an event to the loop unless the daemon has shut down.
// Feeder goroutines and control calls must use it for every send: once Run
// exits nothing drains events, and a blocked send there would hang the caller
// (for a feeder, deadlock closeAll's wg.Wait). The shutdown check comes first
// because the send alone could still win a place in the buffer, where the
// event would never run.
func (d *Daemon) enqueue(ev faceEvent) bool {
	select {
	case <-d.done:
		return false
	default:
	}
	select {
	case d.events <- ev:
		return true
	case <-d.done:
		return false
	}
}

func (d *Daemon) errStopped() error { return fmt.Errorf("daemon %s: stopped", d.name) }

// BecomeRP makes this daemon's router host an RP and floods the
// announcement over its current faces, ARQ-registered so the loop's ticks
// retransmit it until every neighbour acks. It executes on the event loop,
// so the daemon must be running (call after Run has started and neighbor
// links are up). After Run has returned it fails.
func (d *Daemon) BecomeRP(info copss.RPInfo) error {
	errc := make(chan error, 1)
	if !d.enqueue(faceEvent{fn: func() {
		d.sink.Reset()
		err := d.router.BecomeRPAt(time.Now(), info, &d.sink)
		if err == nil {
			d.dispatch(d.sink.Actions)
		}
		errc <- err
	}}) {
		return d.errStopped()
	}
	select {
	case err := <-errc:
		return err
	case <-d.done:
		return d.errStopped()
	}
}

// Run serves until the context is cancelled. It owns all router state.
func (d *Daemon) Run(ctx context.Context) error {
	if d.ln != nil {
		d.wg.Add(1)
		go d.acceptLoop(ctx)
	}
	var tick <-chan time.Time
	if d.tickInterval > 0 {
		t := time.NewTicker(d.tickInterval)
		defer t.Stop()
		tick = t.C
	}
	defer d.closeAll()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case now := <-tick:
			d.sink.Reset()
			d.router.TickTo(now, &d.sink)
			d.dispatch(d.sink.Actions)
		case ev := <-d.events:
			switch {
			case ev.fn != nil:
				ev.fn()
			case ev.closed:
				d.dropFace(ev.face)
			default:
				d.sink.Reset()
				d.router.HandleBurst(time.Now(), ev.face, ev.pkts, &d.sink)
				d.dispatch(d.sink.Actions)
			}
		}
	}
}

func (d *Daemon) acceptLoop(ctx context.Context) {
	defer d.wg.Done()
	for {
		nc, err := d.ln.Accept()
		if err != nil {
			if ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
				d.logf("daemon %s: accept: %v", d.name, err)
			}
			return
		}
		conn := NewConn(nc)
		kind, peer, err := conn.ReadHello(5 * time.Second)
		if err != nil {
			d.logf("daemon %s: handshake from %v: %v", d.name, nc.RemoteAddr(), err)
			conn.Close() //nolint:errcheck // already failing
			continue
		}
		fk := core.FaceClient
		if kind == PeerRouter {
			fk = core.FaceRouter
		}
		kindCopy, peerCopy := kind, peer
		ok := d.enqueue(faceEvent{fn: func() {
			id := d.addFace(conn, fk)
			d.logf("daemon %s: %s %q attached as face %d", d.name, kindCopy, peerCopy, id)
		}})
		if !ok {
			conn.Close() //nolint:errcheck // shutting down
			return
		}
	}
}

// dispatch writes actions to their faces; write failures drop the face.
// Consecutive actions bound for the same face are collected and flushed as
// one burst frame, so an N-packet run to one neighbor costs one Write — the
// wire-level half of the burst amortization. With a fault injector installed
// each packet still gets its own verdict (loss/dup/delay statistics are per
// packet, not per frame); the run's survivors flush together.
func (d *Daemon) dispatch(actions []ndn.Action) {
	for i := 0; i < len(actions); {
		face := actions[i].Face
		j := i + 1
		for j < len(actions) && actions[j].Face == face {
			j++
		}
		d.mu.Lock()
		conn := d.faces[face]
		d.mu.Unlock()
		if conn == nil {
			i = j
			continue
		}
		link := ""
		if d.faults != nil {
			link = fmt.Sprintf("face%d", face)
		}
		tx := d.tx[:0]
		for ; i < j; i++ {
			pkt := actions[i].Packet
			copies := 1
			if d.faults != nil {
				v := d.faults.Decide(time.Now(), link, pkt)
				if v.Drop {
					continue
				}
				if v.Dup {
					copies = 2
				}
				if v.Delay > 0 {
					late, lateFace := pkt, face
					for k := 0; k < copies; k++ {
						time.AfterFunc(v.Delay, func() {
							d.mu.Lock()
							lc := d.faces[lateFace]
							d.mu.Unlock()
							if lc != nil {
								lc.WritePacket(late) //lint:allow errcheckedfaces delayed fault write; the read loop notices dead faces
							}
						})
					}
					continue
				}
			}
			for k := 0; k < copies; k++ {
				tx = append(tx, pkt)
			}
		}
		d.tx = tx[:0]
		if len(tx) == 0 {
			continue
		}
		if err := conn.WriteBurst(tx); err != nil {
			d.logf("daemon %s: write face %d: %v", d.name, face, err)
			d.dropFace(face)
		}
	}
}

func (d *Daemon) dropFace(id ndn.FaceID) {
	d.mu.Lock()
	conn := d.faces[id]
	delete(d.faces, id)
	addr := d.neighbors[id]
	delete(d.neighbors, id)
	d.mu.Unlock()
	if conn == nil {
		return // already dropped (read error racing a write error)
	}
	conn.Close() //nolint:errcheck // already dropping
	d.router.RemoveFace(id)
	if addr != "" {
		select {
		case <-d.done:
		default:
			d.wg.Add(1)
			go d.reconnect(addr)
		}
	}
}

func (d *Daemon) closeAll() {
	close(d.done)
	if d.ln != nil {
		d.ln.Close() //nolint:errcheck // shutdown path
	}
	d.mu.Lock()
	for _, c := range d.faces {
		c.Close() //nolint:errcheck // shutdown path
	}
	d.faces = map[ndn.FaceID]*Conn{}
	d.mu.Unlock()
	d.wg.Wait()
}

// Client is an end-host attachment: it subscribes, publishes and receives
// over a single TCP face. Safe for one reader (Receive) and any number of
// writers.
type Client struct {
	name string
	addr string

	// mu guards the swappable uplink state (Reconnect replaces conn while
	// writers are active).
	mu sync.Mutex
	// conn is the live uplink connection.
	//
	//gcopss:guardedby mu
	conn *Conn
	// faults is the optional uplink fault injector.
	//
	//gcopss:guardedby mu
	faults *faultnet.Injector

	// rq queues decoded-but-undelivered packets when the router flushed a
	// multi-packet burst frame; Receive drains it before reading the next
	// frame. Only the single reader goroutine touches it.
	rq []*wire.Packet

	reconnects *obs.Counter
}

// NewClient dials a router daemon as an end host.
func NewClient(name, routerAddr string) (*Client, error) {
	conn, err := Dial(routerAddr, PeerClient, name, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := &Client{name: name, addr: routerAddr, conn: conn}
	c.Instrument(obs.NewRegistry())
	return c, nil
}

// Instrument re-registers the client's counters on reg.
func (c *Client) Instrument(reg *obs.Registry) {
	c.reconnects = reg.Counter("reconnects_total")
}

// SetFaults installs a fault injector on the client's uplink: every sent
// packet consults it and may be dropped, duplicated or delayed. The link
// key is "uplink".
func (c *Client) SetFaults(in *faultnet.Injector) {
	c.mu.Lock()
	c.faults = in
	c.mu.Unlock()
}

// Name returns the client's identifier.
func (c *Client) Name() string { return c.name }

// Close tears the face down.
func (c *Client) Close() error { return c.current().Close() }

// current returns the live connection.
func (c *Client) current() *Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn
}

// Reconnect re-dials the remembered router address with bounded
// deterministic backoff and swaps in the fresh connection. Subscriptions and
// prefix announcements are face state on the router side, so the caller must
// re-issue them after a successful reconnect. stop, when non-nil, aborts the
// backoff wait early.
func (c *Client) Reconnect(stop <-chan struct{}) error {
	conn, err := DialRetry(c.addr, PeerClient, c.name, 5*time.Second,
		reconnectAttempts, reconnectBackoff, stop)
	if err != nil {
		return err
	}
	c.mu.Lock()
	old := c.conn
	c.conn = conn
	c.mu.Unlock()
	old.Close() //nolint:errcheck // replaced
	c.reconnects.Inc()
	return nil
}

// write pushes one packet through the fault injector (if any) and out the
// live connection.
func (c *Client) write(pkt *wire.Packet) error {
	c.mu.Lock()
	conn, faults := c.conn, c.faults
	c.mu.Unlock()
	copies := 1
	if faults != nil {
		v := faults.Decide(time.Now(), "uplink", pkt)
		if v.Drop {
			return nil // the link ate it; retry layers recover
		}
		if v.Dup {
			copies = 2
		}
		if v.Delay > 0 {
			time.Sleep(v.Delay)
		}
	}
	for i := 0; i < copies; i++ {
		if err := conn.WritePacket(pkt); err != nil {
			return err
		}
	}
	return nil
}

// Subscribe adds subscriptions.
func (c *Client) Subscribe(cds ...cd.CD) error {
	return c.write(&wire.Packet{Type: wire.TypeSubscribe, CDs: cds})
}

// Unsubscribe removes subscriptions.
func (c *Client) Unsubscribe(cds ...cd.CD) error {
	return c.write(&wire.Packet{Type: wire.TypeUnsubscribe, CDs: cds})
}

// Publish pushes an update to a CD.
func (c *Client) Publish(to cd.CD, seq uint64, payload []byte) error {
	return c.write(&wire.Packet{
		Type:    wire.TypeMulticast,
		CDs:     []cd.CD{to},
		Origin:  c.name,
		Seq:     seq,
		Payload: payload,
		SentAt:  time.Now().UnixNano(),
	})
}

// AnnouncePrefix floods a pure content-prefix announcement so that NDN
// Interests for the prefix route to this client (brokers announce their
// snapshot namespace this way). seq must increase across restarts; a
// wall-clock timestamp works.
func (c *Client) AnnouncePrefix(prefix string, seq uint64) error {
	return c.write(&wire.Packet{
		Type:   wire.TypeFIBAdd,
		Name:   prefix,
		Seq:    seq,
		Origin: c.name,
	})
}

// Query sends an NDN Interest.
func (c *Client) Query(name string) error {
	return c.write(&wire.Packet{Type: wire.TypeInterest, Name: name, SentAt: time.Now().UnixNano()})
}

// Send writes an arbitrary packet (brokers use this for Data responses).
func (c *Client) Send(pkt *wire.Packet) error { return c.write(pkt) }

// Receive blocks for the next packet. The router may flush several packets
// in one burst frame; Receive hands them out one at a time in frame order.
func (c *Client) Receive() (*wire.Packet, error) {
	for len(c.rq) == 0 {
		pkts, err := c.current().ReadBurst(c.rq[:0])
		if err != nil {
			return nil, err
		}
		c.rq = pkts
	}
	pkt := c.rq[0]
	c.rq = c.rq[1:]
	return pkt, nil
}
