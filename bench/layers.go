package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"github.com/icn-gaming/gcopss/internal/broker"
	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/trace"
	"github.com/icn-gaming/gcopss/internal/transport"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// Layer replays: calls into one layer's public functions, alone and
// in-process, on the packets the workload puts on the wire. They give the
// allocation counts and the control-plane costs that spans around a running
// chain cannot (allocations are counted process-wide, so the process must be
// doing nothing else).

// mesh is a line of core.Routers wired in memory: what a router emits on a
// router face is handed straight to the neighbour. It reproduces the state a
// chain's routers hold (RP table, FIB, subscription tables) and the packets
// each hop sees, without sockets or goroutines.
type mesh struct {
	routers []*core.Router
	peer    []map[ndn.FaceID]meshEnd // router → face → what is on the other side
	next    []ndn.FaceID
	now     time.Time

	tapRouter int // arrivals at this router from router faces are kept in tapped
	tapped    []*wire.Packet
	delivered []*wire.Packet // everything emitted on a client face
}

type meshEnd struct {
	router int // -1: a client
	face   ndn.FaceID
}

// newMesh builds n routers in a line with the middle one the world's RP.
func newMesh(n int) (*mesh, error) {
	m := &mesh{now: time.Unix(1, 0), tapRouter: n - 1}
	for i := 0; i < n; i++ {
		m.routers = append(m.routers, core.NewRouter(fmt.Sprintf("M%d", i)))
		m.peer = append(m.peer, map[ndn.FaceID]meshEnd{})
		m.next = append(m.next, 0)
	}
	for i := 1; i < n; i++ {
		a, b := m.addFace(i-1, core.FaceRouter), m.addFace(i, core.FaceRouter)
		m.peer[i-1][a] = meshEnd{router: i, face: b}
		m.peer[i][b] = meshEnd{router: i - 1, face: a}
	}
	var sink ndn.SliceSink
	info := copss.RPInfo{Name: rpName, Prefixes: copss.PartitionPrefixes(regions), Seq: 1}
	if err := m.routers[n/2].BecomeRPTo(info, &sink); err != nil {
		return nil, err
	}
	m.forward(n/2, sink.Actions)
	return m, nil
}

func (m *mesh) addFace(router int, kind core.FaceKind) ndn.FaceID {
	m.next[router]++
	id := m.next[router]
	m.routers[router].AddFace(id, kind)
	return id
}

// addClient attaches a client face to a router.
func (m *mesh) addClient(router int) ndn.FaceID {
	id := m.addFace(router, core.FaceClient)
	m.peer[router][id] = meshEnd{router: -1}
	return id
}

// inject delivers pkt to a router as if it had arrived on face from, and
// carries every resulting emission on through the mesh.
func (m *mesh) inject(router int, from ndn.FaceID, pkt *wire.Packet) {
	var sink ndn.SliceSink
	m.routers[router].HandlePacketTo(m.now, from, pkt, &sink)
	m.forward(router, sink.Actions)
}

func (m *mesh) forward(router int, actions []ndn.Action) {
	for _, a := range actions {
		end, ok := m.peer[router][a.Face]
		switch {
		case !ok:
		case end.router < 0:
			m.delivered = append(m.delivered, a.Packet)
		default:
			if end.router == m.tapRouter {
				m.tapped = append(m.tapped, a.Packet)
			}
			m.inject(end.router, end.face, a.Packet)
		}
	}
}

// liveMesh is the mesh of a data-plane workload's chain: its subscribers on
// the last router, one publisher face on the first.
func liveMesh(spec liveSpec, seed int64) (m *mesh, cds []cd.CD, pub ndn.FaceID, err error) {
	if m, err = newMesh(3); err != nil {
		return nil, nil, 0, err
	}
	env := &liveEnv{spec: spec}
	env.chooseCDs(seed)
	for c := 0; c < spec.cds; c++ {
		for k := 0; k < spec.subsPerCD; k++ {
			f := m.addClient(2)
			m.inject(2, f, &wire.Packet{Type: wire.TypeSubscribe, CDs: []cd.CD{env.cds[c]}})
		}
	}
	return m, env.cds, m.addClient(0), nil
}

// allocsPer runs fn n times and returns the heap allocations per run.
func allocsPer(n int, fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// nsPer runs fn n times and returns the wall nanoseconds per run.
func nsPer(n int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(t0)) / float64(n)
}

const replayRuns = 20000

// replayLiveLayers measures, on one frame of the workload as the last hop
// receives it: HandleBurst's, Decode's and ReadBurst's allocations per
// packet, the wire size of a delivered packet, the subscription-table
// lookup, and a Subscribe/Unsubscribe pair against the workload's table.
func replayLiveLayers(spec liveSpec, seed int64, res *result) error {
	m, cds, pub, err := liveMesh(spec, seed)
	if err != nil {
		return err
	}
	// One frame of publishes, none of them a decoy. What the mesh carried
	// while it was being set up is not part of the frame.
	m.tapped, m.delivered = nil, nil
	for seq := uint64(1); len(m.tapped) < spec.frameWidth; seq++ {
		if c := spec.target(seq); c >= 0 {
			m.inject(0, pub, &wire.Packet{Type: wire.TypeMulticast, CDs: []cd.CD{cds[c]}, Origin: "pub0",
				Seq: seq, Payload: make([]byte, (spec.payloadMin+spec.payloadMax)/2), SentAt: 1})
		}
	}
	burst := m.tapped[:spec.frameWidth]
	if len(m.delivered) == 0 {
		return fmt.Errorf("layer replay: the mesh delivered nothing")
	}
	width := float64(len(burst))
	last := m.routers[2]
	var up ndn.FaceID
	for f, end := range m.peer[2] {
		if end.router >= 0 {
			up = f
		}
	}

	var sink ndn.SliceSink
	res.set("core.allocs_per_pkt", allocsPer(replayRuns, func() {
		sink.Reset()
		last.HandleBurst(m.now, up, burst, &sink)
	})/width)

	var size int
	for _, p := range m.delivered {
		size += wire.Size(p)
	}
	res.set("wire.bytes_per_pkt", float64(size)/float64(len(m.delivered)))

	body, err := wire.AppendEncodeBurst(nil, burst)
	if err != nil {
		return err
	}
	decodeAllocs := allocsPer(replayRuns, func() {
		for rest := body; len(rest) > 0; {
			_, n, err := wire.Decode(rest)
			if err != nil {
				return
			}
			rest = rest[n:]
		}
	}) / width
	res.set("wire.decode_allocs_per_pkt", decodeAllocs)

	readAllocs, err := readBurstAllocs(burst)
	if err != nil {
		return err
	}
	res.set("transport.read_allocs_per_pkt", readAllocs/width-decodeAllocs)

	c, err := burst[0].CD()
	if err != nil {
		return err
	}
	hashes := burst[0].CDHashes
	res.set("copss.st_lookup_ns", nsPer(replayRuns*10, func() { last.ST().FacesForFlat(c, hashes) }))

	replaySubscribeOn(last, m.addClient(2), cds[0], res)
	return nil
}

// readBurstAllocs counts Conn.ReadBurst's allocations per frame over a
// loopback pair, the frames written before the reads begin so that reading
// is all the process does.
func readBurstAllocs(frame []*wire.Packet) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close() //nolint:errcheck // only read from
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- nc
	}()
	out, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer out.Close() //nolint:errcheck // the write errors below are checked
	in, ok := <-accepted
	if !ok {
		return 0, fmt.Errorf("loopback accept failed")
	}
	defer in.Close() //nolint:errcheck // only read from
	w, r := transport.NewConn(out), transport.NewConn(in)

	const frames = 64 // well inside a loopback socket buffer
	var readErr error
	var dst []*wire.Packet
	total := 0.0
	for round := 0; round < 32; round++ {
		for i := 0; i < frames; i++ {
			if err := w.WriteBurst(frame); err != nil {
				return 0, err
			}
		}
		total += allocsPer(frames, func() {
			if dst, err = r.ReadBurst(dst[:0]); err != nil {
				readErr = err
			}
		})
	}
	return total / 32, readErr
}

// replaySubscribeOn times a Subscribe and the matching Unsubscribe from one
// client face against a router's populated subscription table.
func replaySubscribeOn(r *core.Router, face ndn.FaceID, c cd.CD, res *result) {
	now := time.Unix(1, 0)
	sub := &wire.Packet{Type: wire.TypeSubscribe, CDs: []cd.CD{c}}
	unsub := &wire.Packet{Type: wire.TypeUnsubscribe, CDs: []cd.CD{c}}
	var sink ndn.SliceSink
	var subNs, unsubNs time.Duration
	for i := 0; i < replayRuns; i++ {
		sink.Reset()
		t0 := time.Now()
		r.HandlePacketTo(now, face, sub, &sink)
		t1 := time.Now()
		r.HandlePacketTo(now, face, unsub, &sink)
		subNs += t1.Sub(t0)
		unsubNs += time.Since(t1)
	}
	res.set("core.subscribe_ns", float64(subNs)/replayRuns)
	res.set("core.unsubscribe_ns", float64(unsubNs)/replayRuns)
}

// replaySubscribe is replaySubscribeOn for live-move: the last router holds
// the movers' faces, and a mover subscribes to one zone at a time.
func replaySubscribe(zones []cd.CD, res *result) error {
	m, err := newMesh(3)
	if err != nil {
		return err
	}
	for i := 0; i < moverCount; i++ {
		f := m.addClient(2)
		m.inject(2, f, &wire.Packet{Type: wire.TypeSubscribe, CDs: []cd.CD{zones[i]}})
	}
	replaySubscribeOn(m.routers[2], m.addClient(2), zones[len(zones)-1], res)
	return nil
}

// replayNDN times the NDN engine alone on live-move's snapshot names: an
// Interest that misses the content store and is forwarded along the FIB, and
// the Data that consumes its PIT entry, is cached and sent back.
func replayNDN(zones []cd.CD, res *result) {
	e := ndn.NewEngine()
	e.FIB().Add(broker.SnapshotPrefix, 2)
	var names []string
	for _, z := range zones {
		for obj := 0; obj < objectsPerZone; obj++ {
			names = append(names, broker.ObjectName(z, fmt.Sprintf("obj%02d", obj)))
		}
	}
	now := time.Unix(1, 0)
	payload := make([]byte, 1024)
	var sink ndn.SliceSink
	var interestNs, dataNs time.Duration
	const laps = 8
	for lap := 0; lap < laps; lap++ {
		for _, name := range names {
			sink.Reset()
			t0 := time.Now()
			e.HandleTo(now, 1, &wire.Packet{Type: wire.TypeInterest, Name: name}, &sink)
			t1 := time.Now()
			e.HandleTo(now, 2, &wire.Packet{Type: wire.TypeData, Name: name, Payload: payload}, &sink)
			interestNs += t1.Sub(t0)
			dataNs += time.Since(t1)
		}
	}
	n := float64(laps * len(names))
	res.set("ndn.interest_ns", float64(interestNs)/n)
	res.set("ndn.data_ns", float64(dataNs)/n)
}

// replayEdgeRouter times core.Router.HandlePacketTo alone on what an edge
// router of the backbone handles: its own players' publications (to be
// encapsulated toward the RP) and the multicasts coming down from the core
// (to be fanned out to the players subscribed here). It also times the
// subscription-table lookup behind the fan-out.
func replayEdgeRouter(spec simSpec, seed int64) (handleNs, lookupNs float64, err error) {
	s, err := spec.scenario(seed)
	if err != nil {
		return 0, 0, err
	}
	stream, err := trace.NewStream(s.World, s.Stream)
	if err != nil {
		return 0, 0, err
	}
	m, err := newMesh(2) // router 0 the edge, router 1 the core holding the RP
	if err != nil {
		return 0, 0, err
	}
	// The backbone attaches player i to edge router i mod 200: this edge
	// gets every 200th player, with the subscriptions of their areas.
	const edges = 200
	players := stream.Players()
	faceOf := map[int]ndn.FaceID{}
	for pi := 0; pi < len(players); pi += edges {
		area, ok := s.World.Map.Area(players[pi].Area)
		if !ok {
			return 0, 0, fmt.Errorf("player %d in unknown area", pi)
		}
		f := m.addClient(0)
		faceOf[pi] = f
		m.inject(0, f, &wire.Packet{Type: wire.TypeSubscribe, CDs: area.SubscriptionCDs()})
	}
	var up ndn.FaceID
	for f, end := range m.peer[0] {
		if end.router >= 0 {
			up = f
		}
	}
	// Record: every update of this edge's players as the client-face
	// publication it is, and every update of anyone as the multicast that
	// comes down from the core when somebody here is subscribed.
	type arrival struct {
		from ndn.FaceID
		pkt  *wire.Packet
	}
	var seq []arrival
	edge := m.routers[0]
	for pi := range players {
		for n := 0; n < 8; n++ {
			u, ok := stream.Next(pi)
			if !ok {
				break
			}
			pkt := &wire.Packet{Type: wire.TypeMulticast, CDs: []cd.CD{u.CD}, Origin: players[pi].ID,
				Seq: uint64(n + 1), Payload: make([]byte, u.Size), SentAt: 1}
			if f, here := faceOf[pi]; here {
				seq = append(seq, arrival{f, pkt})
			}
			if len(edge.ST().FacesFor(u.CD)) > 0 {
				down := *pkt
				down.CDHashes = copss.FlattenHashes(copss.PrefixHashes(u.CD))
				seq = append(seq, arrival{up, &down})
			}
		}
	}
	if len(seq) == 0 {
		return 0, 0, fmt.Errorf("edge-router replay recorded no packets")
	}
	var sink ndn.SliceSink
	laps := 1 + 200000/len(seq)
	t0 := time.Now()
	for lap := 0; lap < laps; lap++ {
		for _, a := range seq {
			sink.Reset()
			edge.HandlePacketTo(m.now, a.from, a.pkt, &sink)
		}
	}
	handleNs = float64(time.Since(t0)) / float64(laps*len(seq))

	var downs []*wire.Packet
	for _, a := range seq {
		if a.from == up {
			downs = append(downs, a.pkt)
		}
	}
	if len(downs) > 0 {
		t0 = time.Now()
		for lap := 0; lap < laps; lap++ {
			for _, p := range downs {
				edge.ST().FacesForFlat(p.CDs[0], p.CDHashes)
			}
		}
		lookupNs = float64(time.Since(t0)) / float64(laps*len(downs))
	}
	return handleNs, lookupNs, nil
}
