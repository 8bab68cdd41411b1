package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"github.com/icn-gaming/gcopss/internal/event"
)

// Chrome trace-event export (DESIGN.md §14). The JSON Array Format wrapped
// in {"traceEvents": [...]}, loadable by chrome://tracing and Perfetto:
//
//	pid 0            "packets"   — one tid per sampled trace, an "X"
//	                  complete span covering first→last hop in virtual time
//	pid 1..R         one per router (sorted by name) — "i" instant events,
//	                  one per traced record, ts in virtual time; args.hop is the
//	                  record's ordinal within its trace in time order
//	pid R+1          "scheduler" — one tid per shard, alternating "execute"
//	                  and "barrier-wait" "X" spans from the profiler
//	                  timeline, ts in wall time since profiling was enabled
//
// Timestamps are microseconds (the trace-event unit). Packet rows use the
// sim clock and scheduler rows use the wall clock; the tracks are separate
// pids, so the two axes never mix on one row.

// chromeEvent is one trace-event record. Only the fields the viewers read.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func meta(pid, tid int, kind, value string) chromeEvent {
	return chromeEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": value}}
}

// WriteChromeTrace serializes the traced records of the tracer's rings and
// the scheduler profile as Chrome trace-event JSON. Records without a
// TraceID (a ring with sampling off keeps them) belong to no trace and are
// skipped. Either argument may be nil; an export with neither produces an
// empty (but valid) trace.
func WriteChromeTrace(w io.Writer, tr *Tracer, prof *event.SchedProfile) error {
	evs := []chromeEvent{} // non-nil so an empty export still has the array

	var rings []*Ring
	if tr != nil {
		rings = tr.Rings()
	}
	snaps := make([][]Hop, len(rings))
	// hops[id] lists every record of one trace across all routers as
	// (ring, position) pairs, appended in ring then position order and
	// stably sorted by At below, so equal times keep that order; a record's
	// place in the sorted list is its "hop".
	type ref struct{ ring, pos int }
	hops := make(map[uint64][]ref)
	ord := make([][]int, len(rings))
	for i, r := range rings {
		snaps[i] = r.Snapshot()
		ord[i] = make([]int, len(snaps[i]))
		for k, h := range snaps[i] {
			if h.TraceID != 0 {
				hops[h.TraceID] = append(hops[h.TraceID], ref{i, k})
			}
		}
	}
	at := func(x ref) int64 { return snaps[x.ring][x.pos].At }
	ids := make([]uint64, 0, len(hops))
	for id := range hops {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) > 0 {
		evs = append(evs, meta(0, 0, "process_name", "packets"))
	}
	for tid, id := range ids {
		refs := hops[id]
		sort.SliceStable(refs, func(i, j int) bool { return at(refs[i]) < at(refs[j]) })
		for n, x := range refs {
			ord[x.ring][x.pos] = n
		}
		lo, hi := at(refs[0]), at(refs[len(refs)-1])
		dur := float64(hi-lo) / 1e3
		if dur <= 0 {
			dur = 1 // zero-width spans are invisible in the viewers
		}
		evs = append(evs, chromeEvent{
			Name: fmt.Sprintf("trace %016x", id), Ph: "X",
			Ts: float64(lo) / 1e3, Dur: dur, Pid: 0, Tid: tid,
			Args: map[string]any{"trace": fmt.Sprintf("%016x", id)},
		})
	}
	for i, r := range rings {
		pid := i + 1
		evs = append(evs, meta(pid, 0, "process_name", "router "+r.Name()))
		for k, h := range snaps[i] {
			if h.TraceID == 0 {
				continue
			}
			evs = append(evs, chromeEvent{
				Name: h.Event.String(), Ph: "i",
				Ts: float64(h.At) / 1e3, Pid: pid, Tid: 0, S: "t",
				Args: map[string]any{
					"trace": fmt.Sprintf("%016x", h.TraceID),
					"face":  h.Face,
					"hop":   ord[i][k],
					"seq":   h.Seq,
				},
			})
		}
	}

	if prof != nil {
		pid := len(rings) + 1
		evs = append(evs, meta(pid, 0, "process_name", "scheduler"))
		for i := range prof.Shards {
			evs = append(evs, meta(pid, i, "thread_name", fmt.Sprintf("shard %d", i)))
		}
		for _, r := range prof.Timeline {
			if r.ExecNs > 0 {
				evs = append(evs, chromeEvent{
					Name: "execute", Ph: "X",
					Ts: float64(r.StartNs) / 1e3, Dur: float64(r.ExecNs) / 1e3,
					Pid: pid, Tid: r.Shard,
					Args: map[string]any{"window": r.Window, "events": r.Events},
				})
			}
			if r.WaitNs > 0 {
				evs = append(evs, chromeEvent{
					Name: "barrier-wait", Ph: "X",
					Ts: float64(r.StartNs+r.ExecNs) / 1e3, Dur: float64(r.WaitNs) / 1e3,
					Pid: pid, Tid: r.Shard,
					Args: map[string]any{"window": r.Window},
				})
			}
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeFile{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// ValidateChromeTrace checks data against the trace-event schema subset the
// writer emits: a traceEvents array whose entries all carry a name, a known
// phase, numeric pid/tid, a timestamp on X/i events and a non-negative
// duration on X events. CI runs it over the traced Fig 4 artifact.
func ValidateChromeTrace(data []byte) error {
	var f struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("trace JSON: %w", err)
	}
	if f.TraceEvents == nil {
		return errors.New("trace JSON: missing traceEvents array")
	}
	num := func(ev map[string]json.RawMessage, key string) (float64, error) {
		raw, ok := ev[key]
		if !ok {
			return 0, fmt.Errorf("missing %q", key)
		}
		var v float64
		if err := json.Unmarshal(raw, &v); err != nil {
			return 0, fmt.Errorf("%q not numeric", key)
		}
		return v, nil
	}
	for i, ev := range f.TraceEvents {
		var name, ph string
		if raw, ok := ev["name"]; !ok || json.Unmarshal(raw, &name) != nil || name == "" {
			return fmt.Errorf("event %d: missing name", i)
		}
		if raw, ok := ev["ph"]; !ok || json.Unmarshal(raw, &ph) != nil {
			return fmt.Errorf("event %d: missing ph", i)
		}
		switch ph {
		case "M", "X", "i":
		default:
			return fmt.Errorf("event %d: unknown phase %q", i, ph)
		}
		if _, err := num(ev, "pid"); err != nil {
			return fmt.Errorf("event %d: %v", i, err)
		}
		if _, err := num(ev, "tid"); err != nil {
			return fmt.Errorf("event %d: %v", i, err)
		}
		if ph == "X" || ph == "i" {
			if _, err := num(ev, "ts"); err != nil {
				return fmt.Errorf("event %d: %v", i, err)
			}
		}
		if ph == "X" {
			d, err := num(ev, "dur")
			if err != nil {
				return fmt.Errorf("event %d: %v", i, err)
			}
			if d < 0 {
				return fmt.Errorf("event %d: negative dur %v", i, d)
			}
		}
	}
	return nil
}
