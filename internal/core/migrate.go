package core

import (
	"fmt"
	"sort"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/obs/trace"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// PathHop describes one router along the handoff path together with its
// faces toward the previous and next hop. For the first hop FaceDown is
// unused; for the last hop FaceUp is unused.
type PathHop struct {
	Router   *Router
	FaceUp   ndn.FaceID // face toward the next hop (closer to the new RP)
	FaceDown ndn.FaceID // face toward the previous hop (closer to the old RP)
}

// PrepareHandoff executes stages A and B of the paper's RP migration
// synchronously on the routers along the path from the old RP host
// (path[0]) to the new host (path[len-1]):
//
//   - the new host becomes the RP for the moved prefixes,
//   - reverse Subscription-Table entries are installed along the path so
//     that everything the old tree needs flows new-RP → old-RP ("R' is in a
//     subtree formed with R as the root"),
//   - the old host shrinks its served set and from then on redirects
//     stragglers ("packets that travel between R and R' will be redirected").
//
// It returns the packets that start stage C — the network-wide Handoff
// announcement flood (emitted by the NEW host) and the old-branch Prune
// (emitted by the OLD host, FIFO behind its last old-tree delivery) — after
// which routers re-graft make-before-break. now feeds the hosts' ARQ
// registration: the returned control packets are retransmitted by the
// respective host's Tick until each neighbor acknowledges them.
func PrepareHandoff(now time.Time, oldRP, newRP string, move []cd.CD, seq uint64, path []PathHop) (*HandoffActions, error) {
	if len(path) < 2 {
		return nil, fmt.Errorf("core: handoff path needs at least 2 hops, got %d", len(path))
	}
	oldHost := path[0].Router
	newHost := path[len(path)-1].Router
	if !oldHost.IsRP(oldRP) {
		return nil, fmt.Errorf("core: %s does not host %s", oldHost.Name(), oldRP)
	}
	oldInfo, ok := oldHost.RPTable().Get(oldRP)
	if !ok {
		return nil, fmt.Errorf("core: %s unknown at %s", oldRP, oldHost.Name())
	}
	kept := subtractPrefixes(oldInfo.Prefixes, move)
	if len(kept) == 0 {
		return nil, fmt.Errorf("core: handoff would leave %s empty", oldRP)
	}

	// The old host's current needs for the moved prefixes: the narrowed CDs
	// its subscription tree requires. These seed the reverse path.
	needs := narrowedNeeds(oldHost, move)

	// The new host's own pre-handoff needs (its old branch toward the old
	// RP), captured before seeding mutates its ST.
	newHostNeeds := narrowedNeeds(newHost, move)

	// Stage A+B on the new host: shrink old, grow new, host it.
	if err := applyHandoff(newHost, oldRP, newRP, move, seq); err != nil {
		return nil, fmt.Errorf("core: new host: %w", err)
	}
	newHost.localRPs[newRP] = struct{}{}
	newHost.ndnEngine.FIB().RemovePrefix(newRP)
	newHost.ndnEngine.FIB().Add(newRP, InternalFace)
	delete(newHost.upstream, newRP)
	newHost.announceSeq[newRP] = seq
	newHost.confirmGraft(newRP, discard)

	// Reverse ST entries: every router except the old host gets entries on
	// its face toward the previous hop, so multicasts flow back to the old
	// tree. Every router except the new host records its graft upstream.
	for i, hop := range path {
		r := hop.Router
		if i > 0 {
			for _, d := range needs.Members() {
				r.st.Add(hop.FaceDown, d)
			}
		}
		if i < len(path)-1 {
			r.ndnEngine.FIB().RemovePrefix(newRP)
			r.ndnEngine.FIB().Add(newRP, hop.FaceUp)
			r.upstream[newRP] = hop.FaceUp
			prop := r.propagated[newRP]
			if prop == nil {
				prop = cd.NewSet()
				r.propagated[newRP] = prop
			}
			for _, d := range needs.Members() {
				prop.Add(d)
			}
			r.confirmGraft(newRP, discard)
		}
	}

	// The old host applies the handoff last: from this moment its RP
	// redirects moved-CD publications toward the new RP.
	if err := applyHandoff(oldHost, oldRP, newRP, move, seq); err != nil {
		return nil, fmt.Errorf("core: old host: %w", err)
	}
	// Moved narrowed CDs no longer belong to the old RP's propagation state.
	// (The old host deliberately does NOT pre-mark the announcement as seen:
	// it must re-flood it to its own branches when the flood arrives.)
	if prop := oldHost.propagated[oldRP]; prop != nil {
		for _, d := range needs.Members() {
			prop.Remove(d)
		}
	}

	// The new host's old-tree propagation state is obsolete (its subtree is
	// now served locally); clean the bookkeeping. The physical old-branch
	// entries along the handoff path are dissolved by the old host's Prune
	// below, which — travelling the same links behind the data — can never
	// outrun an in-flight or RP-queued delivery.
	if newHostNeeds.Len() > 0 {
		if prop := newHost.propagated[oldRP]; prop != nil {
			for _, d := range newHostNeeds.Members() {
				prop.Remove(d)
			}
		}
	}

	// The old host drops its own down-entry toward the path (the new host's
	// subtree is served locally by the new RP from now on) and queues the
	// branch Prune. The Prune is not emitted here: a packet mid-service at
	// the cut-over instant could still emit old-tree copies after us. It is
	// flushed through the old host's serialized RP path — on its next
	// publication service — which orders it behind every old-tree copy on
	// the wire.
	var fromOld ndn.SliceSink
	oldRel := &relSink{r: oldHost, now: now, dst: &fromOld}
	if needs.Len() > 0 {
		for _, d := range needs.Members() {
			oldHost.st.Remove(path[0].FaceUp, d)
			// With the branch gone the old host may no longer need the CD
			// at all; fold any withdrawal into the cut-over actions.
			oldHost.withdrawIfUnneeded(newRP, d, oldRel)
		}
		oldHost.pendingPrunes = append(oldHost.pendingPrunes, ndn.Action{
			Face: path[0].FaceUp,
			Packet: &wire.Packet{
				Type: wire.TypePrune,
				Name: newRP,
				CDs:  needs.Members(),
			},
		})
	}

	// Stage C: the new host floods the combined announcement. Both emission
	// sets are ARQ-registered on their host (via the relSinks) so lost
	// copies are retransmitted.
	var fromNew ndn.SliceSink
	newHost.floodExcept(-1, &wire.Packet{
		Type:   wire.TypeHandoff,
		Name:   newRP,
		Origin: oldRP,
		CDs:    move,
		Seq:    seq,
	}, &relSink{r: newHost, now: now, dst: &fromNew})
	return &HandoffActions{
		FromNew: fromNew.Actions,
		FromOld: fromOld.Actions,
	}, nil
}

// HandoffActions are the packets PrepareHandoff hands back to the host for
// emission: FromNew leave the new RP host, FromOld leave the old host.
type HandoffActions struct {
	FromNew []ndn.Action
	FromOld []ndn.Action
}

// handlePrune dissolves the old-tree branch toward a migrated RP: remove
// the down-entries on the face leading to the new host and forward the
// Prune one hop closer. The new host consumes it.
func (r *Router) handlePrune(now time.Time, from ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
	if r.IsRP(pkt.Name) {
		return // reached the new host: the branch is gone
	}
	face, ok := r.upstream[pkt.Name]
	if !ok {
		r.drop(now, from, pkt, "prune for unknown upstream")
		return
	}
	for _, c := range pkt.CDs {
		r.st.Remove(face, c)
	}
	sink.Emit(ndn.Action{Face: face, Packet: pkt})
}

// applyHandoff updates a router's RP table for a handoff: shrink the old RP,
// then install the new one. Stale-sequence errors are tolerated so the
// operation is idempotent (the flood may reach routers that already applied
// it cooperatively).
func applyHandoff(r *Router, oldRP, newRP string, move []cd.CD, seq uint64) error {
	if info, ok := r.rpt.Get(oldRP); ok {
		kept := subtractPrefixes(info.Prefixes, move)
		if len(kept) != len(info.Prefixes) {
			if err := r.rpt.Set(oldRP, kept, seq); err != nil {
				return fmt.Errorf("shrink %s: %w", oldRP, err)
			}
			if seq > r.announceSeq[oldRP] {
				r.announceSeq[oldRP] = seq
			}
		}
	}
	if cur, ok := r.rpt.Get(newRP); !ok || cur.Seq < seq {
		if err := r.rpt.Set(newRP, move, seq); err != nil {
			return fmt.Errorf("grow %s: %w", newRP, err)
		}
	}
	return nil
}

// subtractPrefixes returns the members of set not present in remove.
func subtractPrefixes(set, remove []cd.CD) []cd.CD {
	rm := cd.NewSet(remove...)
	var out []cd.CD
	for _, p := range set {
		if !rm.Contains(p) {
			out = append(out, p)
		}
	}
	return out
}

// narrowedNeeds computes the narrowed CDs a router's subscription tree
// requires under the given served prefixes.
func narrowedNeeds(r *Router, prefixes []cd.CD) *cd.Set {
	needs := cd.NewSet()
	for _, c := range r.st.AllCDs() {
		for _, p := range prefixes {
			if p.Intersects(c) {
				needs.Add(deeper(p, c))
			}
		}
	}
	return needs
}

// discard swallows emissions; used where nothing can be emitted
// (statically bootstrapped grafts have no waiting joiners).
var discard ndn.ActionSink = discardSink{}

type discardSink struct{}

func (discardSink) Emit(ndn.Action) {}

// confirmGraft marks this router's graft toward rpName as confirmed (on the
// tree), releasing any downstream joiners into sink.
func (r *Router) confirmGraft(rpName string, sink ndn.ActionSink) {
	g := r.grafts[rpName]
	if g == nil {
		r.grafts[rpName] = &graft{confirmed: true}
		return
	}
	g.confirmed = true
	// Sorted faces: Confirm emission feeds host transmit order, and map
	// iteration here would make same-seed replays diverge.
	faces := make([]ndn.FaceID, 0, len(g.waiting))
	for face := range g.waiting {
		faces = append(faces, face)
	}
	sort.Slice(faces, func(i, j int) bool { return faces[i] < faces[j] })
	for _, face := range faces {
		sink.Emit(ndn.Action{Face: face, Packet: &wire.Packet{
			Type: wire.TypeConfirm,
			Name: rpName,
			CDs:  g.waiting[face].Members(),
		}})
	}
	g.waiting = nil
}

// graftConfirmed reports whether this router is on rpName's tree.
func (r *Router) graftConfirmed(rpName string) bool {
	if r.IsRP(rpName) {
		return true
	}
	g := r.grafts[rpName]
	return g != nil && g.confirmed
}

// handleHandoffAnnouncement processes the flooded stage-C announcement: it
// atomically shrinks the old RP and installs the new one, learns the route
// toward the new RP from the arrival face, re-grafts this router's
// subscription tree onto the new RP (make-before-break), and re-floods.
func (r *Router) handleHandoffAnnouncement(now time.Time, from ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
	r.ctr.announcementsIn.Inc()
	newRP, oldRP := pkt.Name, pkt.Origin
	if pkt.Seq <= r.announceSeq[newRP] {
		return // duplicate flood
	}
	r.announceSeq[newRP] = pkt.Seq
	if err := applyHandoff(r, oldRP, newRP, pkt.CDs, pkt.Seq); err != nil {
		r.drop(now, from, pkt, "conflicting handoff")
		return
	}
	r.record(now, trace.HopMigration, from, pkt, "handoff announced")

	// Learn the route unless stage B already pinned one (path routers).
	if _, pinned := r.upstream[newRP]; !pinned && !r.IsRP(newRP) {
		r.ndnEngine.FIB().RemovePrefix(newRP)
		r.ndnEngine.FIB().Add(newRP, from)
		r.upstream[newRP] = from
	}

	r.regraft(now, oldRP, newRP, pkt.CDs, sink)

	// Release joins that raced ahead of this announcement.
	r.drainPendingJoins(now, newRP, sink)

	r.floodExcept(from, pkt, sink)
}

// regraft moves this router's tree membership for the moved prefixes from
// the old RP to the new one. Routers not yet on the new tree send a Join and
// defer leaving the old tree until the Join is confirmed (make-before-break,
// the paper's pending-ST rule: "the router does not leave the original ST
// branch until it is added to a new ST branch"). Routers already grafted by
// stage B — including the new RP host itself — prune the old branch
// immediately.
func (r *Router) regraft(now time.Time, oldRP, newRP string, move []cd.CD, sink ndn.ActionSink) {
	needs := narrowedNeeds(r, move)
	if needs.Len() == 0 {
		return
	}
	// Transfer propagation bookkeeping from the old RP to the new one.
	oldProp := r.propagated[oldRP]
	for _, d := range needs.Members() {
		if oldProp != nil {
			oldProp.Remove(d)
		}
	}
	if r.IsRP(newRP) {
		return // the new host was wired by PrepareHandoff
	}
	oldFace, hadOld := r.upstream[oldRP]
	newProp := r.propagated[newRP]
	if newProp == nil {
		newProp = cd.NewSet()
		r.propagated[newRP] = newProp
	}
	already := true
	for _, d := range needs.Members() {
		if !newProp.ContainsPrefixOf(d) {
			already = false
		}
		newProp.Add(d)
	}
	if !hadOld && r.graftConfirmed(newRP) {
		return // the old RP host itself: nothing to leave, already rooted
	}
	if already && r.graftConfirmed(newRP) {
		// Stage-B preseeded path routers: their old-branch entry lives at
		// the old RP host, which pruned it at cut-over; the seed chain
		// dissolves through the normal unsubscribe cascade. No re-wiring.
		return
	}
	newFace, ok := r.upstreamFaceFor(newRP)
	if !ok {
		return
	}
	if hadOld && oldFace == newFace {
		// Same physical direction: the existing ST chain keeps serving; the
		// upstream router performs its own migration. Nothing to re-wire.
		r.confirmGraft(newRP, sink)
		return
	}
	g := r.grafts[newRP]
	if g == nil {
		g = &graft{waiting: make(map[ndn.FaceID]*cd.Set)}
		r.grafts[newRP] = g
	}
	if hadOld {
		g.oldRP = oldRP
		g.oldFace = oldFace
		g.hasOld = true
		g.pendingLeave = needs.Clone()
	}
	g.joinSent = true
	join := &wire.Packet{
		Type:   wire.TypeJoin,
		Name:   newRP,
		CDs:    needs.Members(),
		Origin: r.name,
	}
	r.record(now, trace.HopMigration, newFace, join, "join sent (make-before-break)")
	sink.Emit(ndn.Action{Face: newFace, Packet: join})
}

// handleJoin grafts a downstream branch onto rpName's multicast tree. The
// ST entries become active immediately (make-before-break: duplicates are
// possible during migration, loss is not). A Confirm is returned as soon as
// this router is itself on the tree; otherwise the Join is aggregated
// upstream and the Confirm deferred.
func (r *Router) handleJoin(now time.Time, from ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
	r.ctr.joinsIn.Inc()
	rpName := pkt.Name
	for _, c := range pkt.CDs {
		r.st.Add(from, c)
	}
	if r.IsRP(rpName) {
		// Tree root: confirm, and multicast the joiner's flush marker down
		// the tree. The marker follows every publication multicast before
		// this instant, so when it reaches the joiner through its OLD
		// branch, that branch is provably drained.
		sink.Emit(ndn.Action{Face: from, Packet: &wire.Packet{
			Type: wire.TypeConfirm,
			Name: rpName,
			CDs:  pkt.CDs,
		}})
		if pkt.Origin != "" {
			for _, c := range pkt.CDs {
				r.pubSeq++
				marker := &wire.Packet{
					Type:   wire.TypeMulticast,
					CDs:    []cd.CD{c},
					Origin: FlushOrigin,
					Name:   flushMarkerName(pkt.Origin),
					Seq:    r.pubSeq,
				}
				r.distribute(now, -1, marker, sink)
			}
		}
		return
	}
	if _, known := r.rpt.Get(rpName); !known {
		// The Join raced ahead of the announcement flood; park it.
		r.pendingJoins[rpName] = append(r.pendingJoins[rpName], pendingJoin{from: from, cds: pkt.CDs, origin: pkt.Origin})
		return
	}
	g := r.grafts[rpName]
	if g == nil {
		g = &graft{waiting: make(map[ndn.FaceID]*cd.Set)}
		r.grafts[rpName] = g
	}
	if g.confirmed {
		// Already on the tree: confirm immediately so the joiner's new
		// branch goes live; the Join still travels on toward the RP so the
		// joiner's flush marker gets emitted.
		sink.Emit(ndn.Action{Face: from, Packet: &wire.Packet{
			Type: wire.TypeConfirm,
			Name: rpName,
			CDs:  pkt.CDs,
		}})
	} else {
		if g.waiting == nil {
			g.waiting = make(map[ndn.FaceID]*cd.Set)
		}
		w := g.waiting[from]
		if w == nil {
			w = cd.NewSet()
			g.waiting[from] = w
		}
		for _, c := range pkt.CDs {
			w.Add(c)
		}
	}
	prop := r.propagated[rpName]
	if prop == nil {
		prop = cd.NewSet()
		r.propagated[rpName] = prop
	}
	for _, c := range pkt.CDs {
		prop.Add(c)
	}
	upFace, ok := r.upstreamFaceFor(rpName)
	if !ok || upFace == from {
		return
	}
	g.joinSent = true
	sink.Emit(ndn.Action{Face: upFace, Packet: pkt})
}

// handleConfirm completes this router's graft: it releases downstream
// joiners and prunes the old tree (the deferred Leave of make-before-break).
func (r *Router) handleConfirm(now time.Time, from ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
	r.ctr.confirmsIn.Inc()
	rpName := pkt.Name
	g := r.grafts[rpName]
	if g == nil {
		return
	}
	if !g.confirmed {
		r.confirmGraft(rpName, sink)
		r.record(now, trace.HopMigration, from, pkt, "graft confirmed")
	}
	// The break of make-before-break happens only when BOTH the new branch
	// is confirmed live AND our flush marker has drained the old one.
	r.maybeLeaveOldBranch(now, g, sink)
}

// flushLeaves reacts to a migration flush marker arriving on a face: grafts
// whose old upstream is that face and whose marker this is may now leave.
func (r *Router) flushLeaves(now time.Time, from ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
	if pkt.Name != flushMarkerName(r.name) {
		return
	}
	// Sorted iteration: the emitted Leaves feed host transmit order, and map
	// order here would make same-seed replays diverge.
	names := make([]string, 0, len(r.grafts))
	for name := range r.grafts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := r.grafts[name]
		if g.hasOld && g.oldFace == from {
			g.markerSeen = true
			r.record(now, trace.HopMigration, from, pkt, "flush marker drained old branch")
			r.maybeLeaveOldBranch(now, g, sink)
		}
	}
}

// maybeLeaveOldBranch sends the deferred Leave once the graft is confirmed
// and its old branch has been flushed.
func (r *Router) maybeLeaveOldBranch(now time.Time, g *graft, sink ndn.ActionSink) {
	if !g.confirmed || !g.markerSeen || !g.hasOld ||
		g.pendingLeave == nil || g.pendingLeave.Len() == 0 {
		return
	}
	leave := &wire.Packet{
		Type: wire.TypeLeave,
		Name: g.oldRP,
		CDs:  g.pendingLeave.Members(),
	}
	r.record(now, trace.HopMigration, g.oldFace, leave, "old branch released")
	sink.Emit(ndn.Action{Face: g.oldFace, Packet: leave})
	g.pendingLeave = nil
	g.hasOld = false
}

// handleLeave prunes a downstream branch: identical to an Unsubscribe of the
// carried CDs, with upstream withdrawal when the last subscriber is gone.
func (r *Router) handleLeave(now time.Time, from ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
	r.ctr.leavesIn.Inc()
	r.handleUnsubscribe(now, from, &wire.Packet{Type: wire.TypeUnsubscribe, CDs: pkt.CDs}, sink)
}

// drainPendingJoins replays joins that arrived before the announcement.
func (r *Router) drainPendingJoins(now time.Time, rpName string, sink ndn.ActionSink) {
	pend := r.pendingJoins[rpName]
	if len(pend) == 0 {
		return
	}
	delete(r.pendingJoins, rpName)
	for _, pj := range pend {
		r.handleJoin(now, pj.from, &wire.Packet{
			Type:   wire.TypeJoin,
			Name:   rpName,
			CDs:    pj.cds,
			Origin: pj.origin,
		}, sink)
	}
}
