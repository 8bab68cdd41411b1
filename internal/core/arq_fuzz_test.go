package core

import (
	"cmp"
	"slices"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/flowctl"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// arqKey identifies one in-flight reliable packet in arqModel.
type arqKey struct {
	face ndn.FaceID
	seq  uint64
}

// arqModel is the reference for the router's per-face ARQ state: face
// kinds, estimators and pending entries in maps, pending keyed by
// (face, seq), and a TickTo that sorts the keys before walking them.
type arqModel struct {
	flow    flowctl.Config
	seq     uint64
	kinds   map[ndn.FaceID]FaceKind
	est     map[ndn.FaceID]*flowctl.Estimator
	pending map[arqKey]*arqEntry
}

func (m *arqModel) estimator(f ndn.FaceID) *flowctl.Estimator {
	if m.est[f] == nil {
		m.est[f] = flowctl.NewEstimator(m.flow)
	}
	return m.est[f]
}

func (m *arqModel) removeFace(f ndn.FaceID) {
	delete(m.kinds, f)
	delete(m.est, f)
	for k := range m.pending {
		if k.face == f {
			delete(m.pending, k)
		}
	}
}

// emit returns the CtlSeq the packet is stamped with, 0 when it is not.
func (m *arqModel) emit(now time.Time, f ndn.FaceID) uint64 {
	if m.kinds[f] != FaceRouter {
		return 0
	}
	m.seq++
	m.pending[arqKey{f, m.seq}] = &arqEntry{nextAt: now.Add(m.estimator(f).RTO()), sentAt: now}
	return m.seq
}

func (m *arqModel) ack(now time.Time, f ndn.FaceID, seq uint64) {
	if _, up := m.kinds[f]; !up {
		return
	}
	k := arqKey{f, seq}
	e, ok := m.pending[k]
	if !ok {
		return
	}
	delete(m.pending, k)
	if !e.retransmitted {
		m.estimator(f).Observe(now.Sub(e.sentAt))
	}
}

// tick returns the retransmissions, in order.
func (m *arqModel) tick(now time.Time) []arqKey {
	keys := make([]arqKey, 0, len(m.pending))
	for k := range m.pending {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b arqKey) int {
		return cmp.Or(cmp.Compare(a.face, b.face), cmp.Compare(a.seq, b.seq))
	})
	var out []arqKey
	for _, k := range keys {
		e := m.pending[k]
		if e.nextAt.After(now) {
			continue
		}
		if e.attempts >= m.flow.MaxAttempts {
			delete(m.pending, k)
			continue
		}
		e.attempts++
		e.retransmitted = true
		e.nextAt = now.Add(m.estimator(k.face).BackoffRTO(e.attempts))
		out = append(out, k)
	}
	return out
}

// FuzzARQFaceTable drives a router's face table and control-plane ARQ with
// random AddFace, RemoveFace, reliable emits, acks and TickTo calls, and
// checks it against arqModel: the same CtlSeq stamps, the same
// retransmission stream, the same ARQPending and the same per-face SRTT
// after every step.
func FuzzARQFaceTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 1, 2, 2, 2, 1, 5, 10, 4, 0, 3, 129, 5, 40, 4, 0})
	f.Add([]byte{0, 3, 0, 9, 2, 3, 2, 3, 1, 3, 4, 0, 0, 3, 2, 3, 5, 255, 4, 0, 3, 131})
	f.Add([]byte{0, 5, 0, 4, 2, 5, 2, 4, 5, 3, 3, 133, 3, 4, 5, 200, 4, 0, 4, 0, 4, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		r := NewRouter("X", WithFlowControl(flowctl.WithMaxAttempts(3)))
		m := &arqModel{
			flow:    r.flow,
			kinds:   make(map[ndn.FaceID]FaceKind),
			est:     make(map[ndn.FaceID]*flowctl.Estimator),
			pending: make(map[arqKey]*arqEntry),
		}
		now := time.Unix(0, 0)
		var sink ndn.SliceSink
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%6, ops[i+1]
			face := ndn.FaceID(arg%6 + 1)
			sink.Reset()
			switch op {
			case 0: // AddFace; bit 3 picks the kind
				kind := FaceRouter
				if arg&8 != 0 {
					kind = FaceClient
				}
				r.AddFace(face, kind)
				m.kinds[face] = kind
			case 1:
				r.RemoveFace(face)
				m.removeFace(face)
			case 2: // a reliable control packet sent on face
				rs := &relSink{r: r, now: now, dst: &sink}
				rs.Emit(ndn.Action{Face: face, Packet: &wire.Packet{Type: wire.TypeJoin, Name: "/rp"}})
				if got, want := sink.Actions[0].Packet.CtlSeq, m.emit(now, face); got != want {
					t.Fatalf("op %d: emit on face %d stamped CtlSeq %d, model %d", i, face, got, want)
				}
			case 3: // an ack on face: bit 7 picks one of the last 16 stamps, else a small seq
				seq := uint64(arg>>3) % 16
				if arg&128 != 0 {
					seq = m.seq - min(m.seq, seq)
				}
				r.HandlePacketTo(now, face, &wire.Packet{Type: wire.TypeAck, CtlSeq: seq}, &sink)
				m.ack(now, face, seq)
			case 4:
				r.TickTo(now, &sink)
				want := m.tick(now)
				got := make([]arqKey, len(sink.Actions))
				for j, a := range sink.Actions {
					got[j] = arqKey{a.Face, a.Packet.CtlSeq}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("op %d: TickTo resent %v, model %v", i, got, want)
				}
			case 5:
				now = now.Add(time.Duration(arg) * 5 * time.Millisecond)
			}
			if got, want := r.ARQPending(), len(m.pending); got != want {
				t.Fatalf("op %d: ARQPending = %d, model %d", i, got, want)
			}
			for id := ndn.FaceID(1); id <= 6; id++ {
				want := time.Duration(0)
				if e := m.est[id]; e != nil {
					want = e.SRTT()
				}
				if got := r.ARQSRTT(id); got != want {
					t.Fatalf("op %d: face %d SRTT = %v, model %v", i, id, got, want)
				}
			}
		}
	})
}
