package gcopss

import (
	"fmt"
	"sort"
	"time"

	"github.com/icn-gaming/gcopss/internal/broker"
	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/flowctl"
	"github.com/icn-gaming/gcopss/internal/gamemap"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// Player is a participant attached to the fabric. It publishes updates to
// its current position's CD and receives everything its position can see,
// per the paper's hierarchical visibility rules.
type Player struct {
	net    *Network
	id     string
	at     *node
	face   ndn.FaceID
	player *gamemap.Player
	seq    uint64

	updates chan Update
	fetch   fetchState
	// qrReceived accumulates completed QR object counts across pumpFetch
	// rounds during one MoveTo.
	qrReceived int
}

// fetchState routes snapshot packets to an in-progress MoveTo or Resume.
type fetchState struct {
	qr     map[string]*broker.QRFetch     // by leaf key
	cyclic map[string]*broker.CyclicFetch // by leaf key
	out    []*wire.Packet
	onData func(*wire.Packet) // raw Data tap (Resume's catch-up queries)
}

// Join attaches a player at a router, positioned in the given area
// ("/1/2" for a zone, "/1" to fly over region 1, "/" or "" for the top).
// The player's subscriptions are installed before Join returns.
func (n *Network) Join(id, router, areaPath string) (*Player, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, errClosed
	}
	nd, err := n.router(router)
	if err != nil {
		return nil, err
	}
	if _, dup := n.players[id]; dup {
		return nil, fmt.Errorf("gcopss: duplicate player %q", id)
	}
	area, err := n.gameMap.Lookup(areaPath)
	if err != nil {
		return nil, err
	}
	p := &Player{
		net:     n,
		id:      id,
		at:      nd,
		player:  gamemap.NewPlayer(id, area),
		updates: make(chan Update, updateBuffer),
	}
	p.face = nd.addFace(core.FaceClient, endpoint{player: p})
	n.players[id] = p
	n.send(nd, p.face, &wire.Packet{Type: wire.TypeSubscribe, CDs: p.player.SubscriptionCDs()})
	return p, nil
}

// ID returns the player's identifier.
func (p *Player) ID() string { return p.id }

// Area returns the player's current area path ("" is the world).
func (p *Player) Area() string { return p.player.Area().CD().Key() }

// Updates delivers received game events. The channel is closed when the
// player leaves or the network shuts down; slow consumers lose the oldest
// pending updates rather than blocking the fabric.
func (p *Player) Updates() <-chan Update { return p.updates }

// Publish pushes an update about an object at the player's position. The
// update reaches every player whose position can see the player's area.
func (p *Player) Publish(objectID string, data []byte) error {
	p.net.mu.Lock()
	defer p.net.mu.Unlock()
	if p.net.closed {
		return errClosed
	}
	p.seq++
	pkt := &wire.Packet{
		Type:    wire.TypeMulticast,
		CDs:     []cd.CD{p.player.PublishCD()},
		Origin:  p.id,
		Seq:     p.seq,
		Payload: broker.EncodeUpdate(objectID, data),
		SentAt:  time.Now().UnixNano(),
	}
	p.net.send(p.at, p.face, pkt)
	return nil
}

// PublishTo publishes to an explicit area path the player can see (e.g. a
// soldier shooting at a plane overhead publishes to "/1/").
func (p *Player) PublishTo(areaPath, objectID string, data []byte) error {
	p.net.mu.Lock()
	defer p.net.mu.Unlock()
	if p.net.closed {
		return errClosed
	}
	area, err := p.net.gameMap.Lookup(areaPath)
	if err != nil {
		return err
	}
	p.seq++
	pkt := &wire.Packet{
		Type:    wire.TypeMulticast,
		CDs:     []cd.CD{area.LeafCD()},
		Origin:  p.id,
		Seq:     p.seq,
		Payload: broker.EncodeUpdate(objectID, data),
		SentAt:  time.Now().UnixNano(),
	}
	p.net.send(p.at, p.face, pkt)
	return nil
}

// handlePacket runs under the network lock.
//
//gcopss:locked mu
func (p *Player) handlePacket(pkt *wire.Packet) {
	switch pkt.Type {
	case wire.TypeMulticast:
		c, err := pkt.CD()
		if err != nil {
			return // malformed multicast: drop, never crash the client
		}
		// Snapshot data channels feed an in-progress cyclic fetch.
		if leaf, ok := broker.LeafOfDataCD(c); ok {
			if f := p.fetch.cyclic[leaf.Key()]; f != nil {
				out, _ := f.HandleMulticast(pkt)
				p.fetch.out = append(p.fetch.out, out...)
			}
			return
		}
		if pkt.Origin == p.id || pkt.Origin == core.FlushOrigin {
			return // own echo, or a migration flush marker
		}
		objID, body, ok := broker.DecodeUpdate(pkt.Payload)
		if !ok {
			objID, body = "", pkt.Payload
		}
		u := Update{
			CD:       c.Key(),
			Origin:   pkt.Origin,
			ObjectID: objID,
			Data:     append([]byte(nil), body...),
			Seq:      pkt.Seq,
		}
		select {
		case p.updates <- u:
		default:
			// Drop the oldest to make room: fresh state wins.
			select {
			case <-p.updates:
				p.net.dropped++
			default:
			}
			select {
			case p.updates <- u:
			default:
				p.net.dropped++
			}
		}
	case wire.TypeData:
		if p.fetch.onData != nil {
			p.fetch.onData(pkt)
		}
		// Sorted keys: the order fetches consume a Data packet decides the
		// order of their follow-up Interests, which must not depend on map
		// iteration order.
		keys := make([]string, 0, len(p.fetch.qr))
		for key := range p.fetch.qr {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			f := p.fetch.qr[key]
			out, done := f.HandleDataAt(time.Now(), pkt)
			p.fetch.out = append(p.fetch.out, out...)
			if done {
				p.qrReceived += f.Received()
				delete(p.fetch.qr, key)
			}
		}
	}
}

// SnapshotMode selects how MoveTo downloads unseen areas.
type SnapshotMode int

// Snapshot modes. Enum starts at 1 so the zero value selects the default
// (query-response).
const (
	// SnapshotQueryResponse fetches each changed object with pipelined NDN
	// Interests.
	SnapshotQueryResponse SnapshotMode = iota + 1
	// SnapshotCyclic joins the broker's cyclic multicast sessions.
	SnapshotCyclic
)

// MoveReport describes a completed movement.
type MoveReport struct {
	// Type is the paper's movement category label.
	Type string
	// Subscribed and Unsubscribed are the CD delta applied.
	Subscribed, Unsubscribed []string
	// SnapshotAreas is the number of unseen leaf areas downloaded.
	SnapshotAreas int
	// Objects is the number of snapshot objects received.
	Objects int
}

// MoveTo relocates the player: it unsubscribes the stale CDs, subscribes
// the new ones, and — when a broker serves the unseen areas — downloads
// their snapshots with the selected mode (zero value = query-response).
func (p *Player) MoveTo(areaPath string, mode SnapshotMode) (*MoveReport, error) {
	p.net.mu.Lock()
	defer p.net.mu.Unlock()
	if p.net.closed {
		return nil, errClosed
	}
	dest, err := p.net.gameMap.Lookup(areaPath)
	if err != nil {
		return nil, err
	}
	res, err := p.player.Move(dest)
	if err != nil {
		return nil, fmt.Errorf("gcopss: move: %w", err)
	}
	report := &MoveReport{Type: res.Type.String(), SnapshotAreas: len(res.Snapshots)}
	for _, c := range res.Unsubscribe {
		report.Unsubscribed = append(report.Unsubscribed, c.Key())
	}
	for _, c := range res.Subscribe {
		report.Subscribed = append(report.Subscribed, c.Key())
	}
	if len(res.Unsubscribe) > 0 {
		p.net.send(p.at, p.face, &wire.Packet{Type: wire.TypeUnsubscribe, CDs: res.Unsubscribe})
	}
	if len(res.Subscribe) > 0 {
		p.net.send(p.at, p.face, &wire.Packet{Type: wire.TypeSubscribe, CDs: res.Subscribe})
	}
	if len(res.Snapshots) > 0 && len(p.net.brokers) > 0 {
		n, err := p.fetchSnapshots(res.Snapshots, mode)
		if err != nil {
			return nil, err
		}
		report.Objects = n
	}
	return report, nil
}

// fetchSnapshots downloads the given leaves. Caller holds the lock.
//
//gcopss:locked mu
func (p *Player) fetchSnapshots(leaves []cd.CD, mode SnapshotMode) (int, error) {
	if mode == 0 {
		mode = SnapshotQueryResponse
	}
	p.fetch = fetchState{
		qr:     make(map[string]*broker.QRFetch),
		cyclic: make(map[string]*broker.CyclicFetch),
	}
	var initial []*wire.Packet
	for _, leaf := range leaves {
		switch mode {
		case SnapshotQueryResponse:
			f := broker.NewFetch(leaf, flowctl.WithWindow(1, 15, 32))
			p.fetch.qr[leaf.Key()] = f
			initial = append(initial, f.StartAt(time.Now())...)
		case SnapshotCyclic:
			f := broker.NewCyclicFetch(leaf, p.id)
			p.fetch.cyclic[leaf.Key()] = f
			initial = append(initial, f.Start()...)
		default:
			return 0, fmt.Errorf("gcopss: unknown snapshot mode %d", mode)
		}
	}
	p.net.send(p.at, p.face, initial...)
	p.pumpFetch()

	// Cyclic sessions need broker rotation ticks; drive them until every
	// fetch completes (bounded: each tick advances every session).
	for guard := 0; len(p.fetch.cyclic) > 0 && p.anyCyclicPending(); guard++ {
		if guard > 100000 {
			return 0, fmt.Errorf("gcopss: cyclic snapshot fetch did not converge")
		}
		// Brokers tick in sorted-name order so the injected rotation packets
		// are sequenced identically on every run.
		names := make([]string, 0, len(p.net.brokers))
		for name := range p.net.brokers {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			bh := p.net.brokers[name]
			for _, out := range bh.b.Tick() {
				p.net.inject(bh.at, bh.face, out)
			}
		}
		p.net.drain()
		p.pumpFetch()
	}

	total := 0
	for _, f := range p.fetch.cyclic {
		total += f.Received()
	}
	// Completed QR fetches were removed from the map as they finished; the
	// count accumulates in pumpFetch via qrReceived.
	total += p.qrReceived
	p.qrReceived = 0
	p.fetch = fetchState{}
	return total, nil
}

// pumpFetch flushes packets produced by fetch handlers. Caller holds the
// lock.
func (p *Player) pumpFetch() {
	for len(p.fetch.out) > 0 {
		out := p.fetch.out
		p.fetch.out = nil
		p.net.send(p.at, p.face, out...)
	}
	for key, f := range p.fetch.qr {
		if f.Done() {
			p.qrReceived += f.Received()
			delete(p.fetch.qr, key)
		}
	}
}

func (p *Player) anyCyclicPending() bool {
	for _, f := range p.fetch.cyclic {
		if !f.Done() {
			return true
		}
	}
	return false
}

// Suspend takes the player offline: its subscriptions are withdrawn so the
// fabric stops carrying traffic for it, but its position and update channel
// survive for a later Resume.
func (p *Player) Suspend() error {
	p.net.mu.Lock()
	defer p.net.mu.Unlock()
	if p.net.closed {
		return errClosed
	}
	p.net.send(p.at, p.face, &wire.Packet{
		Type: wire.TypeUnsubscribe,
		CDs:  p.player.SubscriptionCDs(),
	})
	return nil
}

// ResumeReport describes what a returning player caught up on.
type ResumeReport struct {
	// Missed are the updates logged by brokers for the player's visible
	// areas while it was offline (bounded by the brokers' log size),
	// oldest first per area.
	Missed []Update
}

// Resume brings a suspended player back online: it resubscribes and, when a
// broker serves its visible areas, fetches the recent-update logs so the
// player learns what happened while away (the paper's offline-player
// support).
func (p *Player) Resume() (*ResumeReport, error) {
	p.net.mu.Lock()
	defer p.net.mu.Unlock()
	if p.net.closed {
		return nil, errClosed
	}
	p.net.send(p.at, p.face, &wire.Packet{
		Type: wire.TypeSubscribe,
		CDs:  p.player.SubscriptionCDs(),
	})
	report := &ResumeReport{}
	if len(p.net.brokers) == 0 {
		return report, nil
	}
	for _, leaf := range p.player.Area().VisibleLeaves() {
		leaf := leaf
		var payload []byte
		got := false
		p.fetch = fetchState{}
		collect := func(pkt *wire.Packet) {
			if pkt.Type == wire.TypeData && pkt.Name == broker.RecentName(leaf) {
				payload = pkt.Payload
				got = true
			}
		}
		p.fetch.onData = collect
		p.net.send(p.at, p.face, &wire.Packet{
			Type: wire.TypeInterest,
			Name: broker.RecentName(leaf),
		})
		p.fetch = fetchState{}
		if !got {
			continue
		}
		for _, rec := range broker.ParseRecent(payload) {
			if rec.Origin == p.id {
				continue
			}
			report.Missed = append(report.Missed, Update{
				CD:       leaf.Key(),
				Origin:   rec.Origin,
				ObjectID: rec.ObjID,
				Seq:      rec.Seq,
			})
		}
	}
	return report, nil
}

// Leave detaches the player and closes its update channel.
func (p *Player) Leave() error {
	p.net.mu.Lock()
	defer p.net.mu.Unlock()
	if p.net.closed {
		return nil
	}
	if _, ok := p.net.players[p.id]; !ok {
		return nil
	}
	p.net.send(p.at, p.face, &wire.Packet{
		Type: wire.TypeUnsubscribe,
		CDs:  p.player.SubscriptionCDs(),
	})
	p.at.r.RemoveFace(p.face)
	p.at.faces[p.face-1] = endpoint{}
	delete(p.net.players, p.id)
	close(p.updates)
	return nil
}
