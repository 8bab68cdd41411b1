// Package broker implements the decentralized snapshot brokers of Section
// IV-A: servers that subscribe to the leaf CDs of their serving areas,
// maintain up-to-date object snapshots from the update stream, and hand
// movers the current state of a sub-world through either of the paper's two
// mechanisms — NDN query-response (pipelined Interests per object) or
// cyclic multicast (the broker multicasts the area snapshot in a loop while
// at least one mover is subscribed).
//
// A Broker is a pure state machine: hosts deliver packets to HandlePacket
// and drive Tick from a timer; both return the packets to emit. This lets
// the same implementation run in the discrete-event testbed and behind a
// real TCP face.
package broker

import (
	"bytes"
	"sort"
	"strconv"
	"strings"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/gamemap"
	"github.com/icn-gaming/gcopss/internal/obs"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// SnapshotPrefix is the NDN namespace brokers answer queries under.
const SnapshotPrefix = "/snapshot"

// CtlComponent and DataComponent are the CD namespaces of the
// cyclic-multicast control and data channels.
const (
	CtlComponent  = "snapctl"
	DataComponent = "snapdata"
)

// CtlCD returns the control CD movers publish start/stop requests to for a
// leaf's cyclic session.
func CtlCD(leaf cd.CD) cd.CD {
	return prefixed(CtlComponent, leaf)
}

// DataCD returns the CD the broker multicasts a leaf's snapshot objects on.
func DataCD(leaf cd.CD) cd.CD {
	return prefixed(DataComponent, leaf)
}

func prefixed(ns string, leaf cd.CD) cd.CD {
	comps := append([]string{ns}, leaf.Components()...)
	return cd.MustNew(comps...)
}

// LeafOfDataCD inverts DataCD.
func LeafOfDataCD(c cd.CD) (cd.CD, bool) {
	comps := c.Components()
	if len(comps) < 1 || comps[0] != DataComponent {
		return cd.Root(), false
	}
	leaf, err := cd.New(comps[1:]...)
	if err != nil {
		return cd.Root(), false
	}
	return leaf, true
}

// EncodeUpdate frames a game update so brokers can attribute it to an
// object: "objID\n" + body.
func EncodeUpdate(objID string, body []byte) []byte {
	out := make([]byte, 0, len(objID)+1+len(body))
	out = append(out, objID...)
	out = append(out, '\n')
	return append(out, body...)
}

// DecodeUpdate recovers the object ID and body.
func DecodeUpdate(payload []byte) (objID string, body []byte, ok bool) {
	i := strings.IndexByte(string(payload), '\n')
	if i < 0 {
		return "", nil, false
	}
	return string(payload[:i]), payload[i+1:], true
}

// objState is the broker's view of one object.
type objState struct {
	id      string
	version int
	size    float64
	enc     []byte // encodeObject of this version, built on first use
}

// encoded returns the object's snapshot payload for its current version.
// Every reply and cyclic packet of one version shares the array; an update
// drops it, so a packet still in flight keeps its bytes (DESIGN.md §11
// rule 1).
func (o *objState) encoded() []byte {
	if o.enc == nil {
		o.enc = encodeObject(o.id, o.version, int(o.size))
	}
	return o.enc
}

// session is one active cyclic-multicast session.
type session struct {
	leaf        cd.CD
	subscribers int
	// advBy records each subscriber's receiver-advertised window (objects
	// per delivery tick) from the AdvWin TLV of its start control packet,
	// keyed by origin. The session's rotation speed is the smallest
	// advertisement — the slowest mover sets the pace, explicitly.
	advBy map[string]int
	order []string // object rotation
	next  int
	cycle uint64 // completed cycles, for stats
}

// credit returns how many objects this session may emit per Tick: the
// minimum advertised window across subscribers, or 1 (the legacy one
// object per pacing tick) when nobody advertised.
func (s *session) credit() int {
	c := 0
	for _, n := range s.advBy {
		if n > 0 && (c == 0 || n < c) {
			c = n
		}
	}
	if c == 0 {
		return 1
	}
	return c
}

// RecentLogSize bounds the per-leaf log of recent updates kept for players
// coming back online ("the general pub/sub support provided in COPSS for
// offline users").
const RecentLogSize = 256

// recentEntry is one logged update.
type recentEntry struct {
	Origin string
	Seq    uint64
	ObjID  string
	Size   int
}

// Broker maintains snapshots for a set of leaf areas.
type Broker struct {
	name     string
	decay    float64
	serving  map[string]struct{}             // leaf CD keys
	objects  map[string]map[string]*objState // leaf key → object id → state
	area     map[string]string               // object id → leaf key
	sessions map[string]*session             // leaf key → active session
	recent   map[string][]recentEntry        // leaf key → recent updates (ring)

	// Telemetry. The broker is a pure state machine with no clock, so the
	// query-latency histogram is fed by the host (which owns timing).
	reg            *obs.Registry
	updatesApplied *obs.Counter
	queriesServed  *obs.Counter
	objectsCycled  *obs.Counter
	queryLatency   *obs.Histogram
	sessionWindow  *obs.Histogram
}

// Option configures a Broker at construction. Brokers are configured
// exclusively through options — the struct fields are unexported on purpose.
type Option func(*Broker)

// WithDecay sets the λ of the snapshot-size model. Values outside (0, 1)
// select gamemap.DefaultDecay, matching the zero-value behavior.
func WithDecay(decay float64) Option {
	return func(b *Broker) {
		if decay > 0 && decay < 1 {
			b.decay = decay
		}
	}
}

// WithRegistry binds the broker's metrics to reg at construction, instead of
// the private registry New otherwise creates. Equivalent to calling
// Instrument(reg) immediately after New.
func WithRegistry(reg *obs.Registry) Option {
	return func(b *Broker) {
		if reg != nil {
			b.reg = reg
		}
	}
}

// New creates a broker serving the given leaf CDs.
func New(name string, serving []cd.CD, opts ...Option) *Broker {
	b := &Broker{
		name:     name,
		decay:    gamemap.DefaultDecay,
		serving:  make(map[string]struct{}, len(serving)),
		objects:  make(map[string]map[string]*objState, len(serving)),
		area:     make(map[string]string),
		sessions: make(map[string]*session),
		recent:   make(map[string][]recentEntry),
	}
	for _, leaf := range serving {
		b.serving[leaf.Key()] = struct{}{}
		b.objects[leaf.Key()] = make(map[string]*objState)
	}
	b.reg = obs.NewRegistry()
	for _, opt := range opts {
		opt(b)
	}
	b.Instrument(b.reg)
	return b
}

// Instrument re-binds the broker's metrics to reg. Hosts call this to fold
// broker telemetry into a process-wide registry; counts accumulated in a
// previously bound registry are not carried over.
func (b *Broker) Instrument(reg *obs.Registry) {
	b.reg = reg
	b.updatesApplied = reg.Counter("broker.updates_applied")
	b.queriesServed = reg.Counter("broker.queries_served")
	b.objectsCycled = reg.Counter("broker.objects_cycled")
	b.queryLatency = reg.Histogram("broker.query_ms", obs.LatencyBucketsMs())
	b.sessionWindow = reg.Histogram("broker.session_window", []float64{1, 2, 4, 8, 16, 32, 64})
	reg.GaugeFunc("broker.active_sessions", func() float64 { return float64(len(b.sessions)) })
}

// Obs returns the registry the broker records into.
func (b *Broker) Obs() *obs.Registry { return b.reg }

// QueryLatency returns the snapshot query/response latency histogram
// (milliseconds). The broker has no clock; the host observes into it.
func (b *Broker) QueryLatency() *obs.Histogram { return b.queryLatency }

// Name returns the broker's identifier.
func (b *Broker) Name() string { return b.name }

// SubscriptionCDs returns the CDs the broker must subscribe to: its serving
// leaves (to observe updates) and their control channels (to learn about
// movers). "it only subscribes to the leaf CDs representing its serving area
// and calculates snapshots on receiving updates".
func (b *Broker) SubscriptionCDs() []cd.CD {
	var out []cd.CD
	for key := range b.serving {
		leaf, err := cd.FromKey(key)
		if err != nil {
			continue
		}
		out = append(out, leaf, CtlCD(leaf))
	}
	cd.Sort(out)
	return out
}

// Serves reports whether the broker is responsible for a leaf.
func (b *Broker) Serves(leaf cd.CD) bool {
	_, ok := b.serving[leaf.Key()]
	return ok
}

// HandlePacket processes one packet addressed to the broker and returns the
// packets to emit in response.
func (b *Broker) HandlePacket(pkt *wire.Packet) []*wire.Packet {
	switch pkt.Type {
	case wire.TypeMulticast:
		return b.handleMulticast(pkt)
	case wire.TypeInterest:
		return b.handleInterest(pkt)
	default:
		return nil
	}
}

// handleMulticast consumes game updates (snapshot maintenance) and cyclic
// session control messages.
func (b *Broker) handleMulticast(pkt *wire.Packet) []*wire.Packet {
	c, err := pkt.CD()
	if err != nil {
		return nil
	}
	comps := c.Components()
	if len(comps) > 0 && comps[0] == CtlComponent {
		leaf, err := cd.New(comps[1:]...)
		if err != nil {
			return nil
		}
		return b.handleSessionCtl(leaf, pkt)
	}
	if _, ok := b.serving[c.Key()]; !ok {
		return nil
	}
	objID, body, ok := DecodeUpdate(pkt.Payload)
	if !ok {
		return nil
	}
	b.applyUpdate(c, objID, float64(len(body)))
	log := append(b.recent[c.Key()], recentEntry{
		Origin: pkt.Origin, Seq: pkt.Seq, ObjID: objID, Size: len(body),
	})
	if len(log) > RecentLogSize {
		log = log[len(log)-RecentLogSize:]
	}
	b.recent[c.Key()] = log
	return nil
}

// applyUpdate advances an object snapshot per Eq. 1.
func (b *Broker) applyUpdate(leaf cd.CD, objID string, size float64) {
	areaObjs := b.objects[leaf.Key()]
	o, ok := areaObjs[objID]
	if !ok {
		o = &objState{id: objID}
		areaObjs[objID] = o
		b.area[objID] = leaf.Key()
	}
	o.size = b.decay*o.size + size
	o.version++
	o.enc = nil
	b.updatesApplied.Inc()
	// A running session picks up new objects on its next rotation.
	if s, active := b.sessions[leaf.Key()]; active {
		found := false
		for _, id := range s.order {
			if id == objID {
				found = true
				break
			}
		}
		if !found {
			s.order = append(s.order, objID)
		}
	}
}

// handleSessionCtl starts/stops cyclic sessions ("It starts multicasting on
// receiving the first Subscribe packet and stops on receiving the last
// Unsubscribe packet") and tracks each subscriber's advertised window.
func (b *Broker) handleSessionCtl(leaf cd.CD, pkt *wire.Packet) []*wire.Packet {
	if _, ok := b.serving[leaf.Key()]; !ok {
		return nil
	}
	switch string(pkt.Payload) {
	case "start":
		s, ok := b.sessions[leaf.Key()]
		if !ok {
			s = &session{leaf: leaf, advBy: make(map[string]int), order: b.changedObjectIDs(leaf)}
			b.sessions[leaf.Key()] = s
		}
		s.subscribers++
		if pkt.AdvWin > 0 && pkt.Origin != "" {
			s.advBy[pkt.Origin] = int(pkt.AdvWin)
		}
		// An immediate manifest tells joiners how many objects to expect.
		return []*wire.Packet{b.manifestPacket(leaf)}
	case "stop":
		s, ok := b.sessions[leaf.Key()]
		if !ok {
			return nil
		}
		s.subscribers--
		delete(s.advBy, pkt.Origin)
		if s.subscribers <= 0 {
			delete(b.sessions, leaf.Key())
		}
	}
	return nil
}

// changedObjectIDs returns the sorted IDs of objects with version > 0
// (version-0 objects ship with the map and cost nothing).
func (b *Broker) changedObjectIDs(leaf cd.CD) []string {
	var out []string
	for id, o := range b.objects[leaf.Key()] {
		if o.version > 0 {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// manifestPacket announces a session's object count on the data channel.
func (b *Broker) manifestPacket(leaf cd.CD) *wire.Packet {
	n := len(b.changedObjectIDs(leaf))
	return &wire.Packet{
		Type:    wire.TypeMulticast,
		CDs:     []cd.CD{DataCD(leaf)},
		Origin:  b.name,
		Payload: []byte("manifest:" + strconv.Itoa(n)),
	}
}

// Tick advances every active cyclic session by up to its credit — the
// smallest receiver-advertised window among its subscribers, 1 when none —
// and returns the multicast packets to emit. Hosts call it on their
// multicast pacing interval; a session's rotation never outruns what its
// slowest mover said it could absorb per interval.
func (b *Broker) Tick() []*wire.Packet {
	if len(b.sessions) == 0 {
		return nil
	}
	keys := make([]string, 0, len(b.sessions))
	for k := range b.sessions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []*wire.Packet
	for _, k := range keys {
		s := b.sessions[k]
		if len(s.order) == 0 {
			continue
		}
		credit := s.credit()
		b.sessionWindow.Observe(float64(credit))
		for i := 0; i < credit && i < len(s.order); i++ {
			if s.next >= len(s.order) {
				s.next = 0
				s.cycle++
			}
			id := s.order[s.next]
			s.next++
			o := b.objects[k][id]
			if o == nil {
				continue
			}
			b.objectsCycled.Inc()
			out = append(out, &wire.Packet{
				Type:    wire.TypeMulticast,
				CDs:     []cd.CD{DataCD(s.leaf)},
				Origin:  b.name,
				Payload: o.encoded(),
			})
		}
	}
	return out
}

// encodeObject frames one snapshot object: "obj:<id>:<version>:" followed by
// size zero bytes of padding, in one allocation (TestCodecAllocs), clipped
// to its length so no holder's append reaches a shared array's spare room.
func encodeObject(id string, version, size int) []byte {
	b := make([]byte, 0, len("obj:")+len(id)+len(":-9223372036854775808:")+size)
	b = append(append(append(b, "obj:"...), id...), ':')
	b = append(strconv.AppendInt(b, int64(version), 10), ':')
	n := len(b) + size
	return b[:n:n]
}

// ParseObject recovers the id and version of a cyclic object packet, or
// manifest count when the packet is a manifest.
func ParseObject(payload []byte) (id string, version int, manifest int, ok bool) {
	idb, version, manifest, ok := parseObject(payload)
	return string(idb), version, manifest, ok
}

// parseObject is ParseObject with the id left in payload, so a caller that
// only compares it allocates nothing.
func parseObject(payload []byte) (id []byte, version int, manifest int, ok bool) {
	if rest, found := bytes.CutPrefix(payload, []byte("manifest:")); found {
		n, err := strconv.Atoi(string(rest))
		if err != nil {
			return nil, 0, 0, false
		}
		return nil, 0, n, true
	}
	rest, isObj := bytes.CutPrefix(payload, []byte("obj:"))
	id, rest, found := bytes.Cut(rest, []byte(":"))
	ver, _, found2 := bytes.Cut(rest, []byte(":"))
	v, err := strconv.Atoi(string(ver))
	if !isObj || !found || !found2 || err != nil {
		return nil, 0, -1, false
	}
	return id, v, -1, true
}

// handleInterest answers NDN snapshot queries:
//
//	/snapshot<leaf>/_manifest   → the changed-object list "id:size" lines
//	/snapshot<leaf>/<objID>     → the object snapshot bytes
func (b *Broker) handleInterest(pkt *wire.Packet) []*wire.Packet {
	if !strings.HasPrefix(pkt.Name, SnapshotPrefix) {
		return nil
	}
	rest := pkt.Name[len(SnapshotPrefix):]
	i := strings.LastIndexByte(rest, '/')
	if i < 0 {
		return nil
	}
	leafKey, item := rest[:i], rest[i+1:]
	// An airspace leaf key ends in '/', which collides with the item
	// separator; the extra empty segment shows up as an empty leafKey tail.
	leaf, err := cd.FromKey(leafKey)
	if err != nil {
		return nil
	}
	if _, ok := b.serving[leaf.Key()]; !ok {
		return nil
	}
	b.queriesServed.Inc()
	switch item {
	case "_recent":
		// Catch-up for a player coming back online in this area: the
		// recent update log, newest last.
		log := b.recent[leaf.Key()]
		out := make([]byte, 0, 32*len(log))
		for _, e := range log {
			out = append(append(out, e.Origin...), ':')
			out = append(append(strconv.AppendUint(out, e.Seq, 10), ':'), e.ObjID...)
			out = append(strconv.AppendInt(append(out, ':'), int64(e.Size), 10), '\n')
		}
		return reply(pkt, bytes.TrimSuffix(out, []byte("\n")))
	case "_manifest":
		ids := b.changedObjectIDs(leaf)
		out := make([]byte, 0, 16*len(ids))
		for _, id := range ids {
			out = append(append(out, id...), ':')
			out = append(strconv.AppendInt(out, int64(int(b.objects[leaf.Key()][id].size)), 10), '\n')
		}
		return reply(pkt, bytes.TrimSuffix(out, []byte("\n")))
	}
	if o, ok := b.objects[leaf.Key()][item]; ok {
		return reply(pkt, o.encoded())
	}
	// Unchanged object: version 0 ships with the map; answer with an empty
	// snapshot so the consumer is not left waiting.
	return reply(pkt, encodeObject(item, 0, 0))
}

// reply answers Interest q with one Data packet; the packet and the
// one-element slice returned are a single record.
func reply(q *wire.Packet, payload []byte) []*wire.Packet {
	r := &struct {
		out [1]*wire.Packet
		pkt wire.Packet
	}{pkt: wire.Packet{Type: wire.TypeData, Name: q.Name, Payload: payload, SentAt: q.SentAt}}
	r.out[0] = &r.pkt
	return r.out[:]
}

// ObjectName returns the NDN name of an object snapshot.
func ObjectName(leaf cd.CD, objID string) string {
	return SnapshotPrefix + leaf.Key() + "/" + objID
}

// ManifestName returns the NDN name of a leaf's manifest.
func ManifestName(leaf cd.CD) string {
	return SnapshotPrefix + leaf.Key() + "/_manifest"
}

// RecentName returns the NDN name of a leaf's recent-update log.
func RecentName(leaf cd.CD) string {
	return SnapshotPrefix + leaf.Key() + "/_recent"
}

// RecentUpdate is one catch-up record returned to a resuming player.
type RecentUpdate struct {
	Origin string
	Seq    uint64
	ObjID  string
	Size   int
}

// ParseRecent decodes a _recent Data payload.
func ParseRecent(payload []byte) []RecentUpdate {
	var out []RecentUpdate
	for _, line := range strings.Split(string(payload), "\n") {
		parts := strings.SplitN(line, ":", 4)
		if len(parts) != 4 {
			continue
		}
		seq, err1 := strconv.ParseUint(parts[1], 10, 64)
		size, err2 := strconv.Atoi(parts[3])
		if err1 != nil || err2 != nil {
			continue
		}
		out = append(out, RecentUpdate{Origin: parts[0], Seq: seq, ObjID: parts[2], Size: size})
	}
	return out
}

// ParseManifest decodes a manifest payload into (id, size) pairs.
func ParseManifest(payload []byte) map[string]int {
	out := make(map[string]int)
	for _, line := range strings.Split(string(payload), "\n") {
		if line == "" {
			continue
		}
		i := strings.LastIndexByte(line, ':')
		if i < 0 {
			continue
		}
		size, err := strconv.Atoi(line[i+1:])
		if err != nil {
			continue
		}
		out[line[:i]] = size
	}
	return out
}

// Stats returns cumulative counters.
func (b *Broker) Stats() (updates, queries, cycled uint64) {
	return b.updatesApplied.Value(), b.queriesServed.Value(), b.objectsCycled.Value()
}

// SnapshotSize returns the broker's current snapshot bytes for a leaf.
func (b *Broker) SnapshotSize(leaf cd.CD) float64 {
	var total float64
	for _, o := range b.objects[leaf.Key()] {
		if o.version > 0 {
			total += o.size
		}
	}
	return total
}

// ActiveSessions returns the leaf keys with running cyclic sessions.
func (b *Broker) ActiveSessions() []string {
	out := make([]string, 0, len(b.sessions))
	for k := range b.sessions {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
