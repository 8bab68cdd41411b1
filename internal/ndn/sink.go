package ndn

// ActionSink receives forwarding decisions as they are made. The emission
// API of the stack is push-based: packet handlers emit each (face, packet)
// action into a sink instead of building and returning a slice, which frees
// hosts to stream actions straight onto the wire (or into a per-shard
// mailbox) without an intermediate allocation per hop.
//
// Ownership rules (see DESIGN.md §11):
//
//   - An Action passed to Emit is transferred to the sink. The emitter must
//     not retain the Action value, nor mutate the packet it points to,
//     afterwards — sinks may buffer the action and apply it at any later
//     time. This is the sink-aliasing corollary of the immutable-after-send
//     packet discipline, and the gcopsslint sharedpkt analyzer enforces it.
//   - Emit is synchronous and non-blocking from the emitter's point of view;
//     a sink must not call back into the emitter.
//   - Sinks are not safe for concurrent use unless documented otherwise;
//     each shard of a parallel host owns its own sink.
type ActionSink interface {
	Emit(a Action)
}

// SliceSink is the slice-backed ActionSink: it collects emitted actions in
// order. Hosts and tests own one, read Actions after a handler returns, and
// Reset it before the next call so the backing array is reused.
type SliceSink struct {
	Actions []Action
}

// Emit appends the action.
func (s *SliceSink) Emit(a Action) { s.Actions = append(s.Actions, a) }

// Reset empties the sink, keeping the backing array for reuse.
func (s *SliceSink) Reset() { s.Actions = s.Actions[:0] }
