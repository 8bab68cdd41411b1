package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestWriteChromeTraceValid: a populated export passes the validator and
// contains the expected track structure.
func TestWriteChromeTraceValid(t *testing.T) {
	tr := NewTracer(1, 0, 64)
	r1 := tr.Ring("R1")
	r2 := tr.Ring("R2")
	id := tr.SampleID("p1", 1)
	if id == 0 {
		t.Fatal("every=1 did not sample")
	}
	base := time.Unix(0, 0).Add(time.Millisecond).UnixNano()
	r1.Append(Hop{TraceID: id, At: base, Face: 1, Seq: 1, Event: HopEncapsulate})
	r2.Append(Hop{TraceID: id, At: base + int64(2*time.Millisecond), Face: -1, Seq: 1, Event: HopRPDeliver})
	r2.Append(Hop{TraceID: id, At: base + int64(2*time.Millisecond), Face: 3, Seq: 1, Event: HopFanOut})

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("ValidateChromeTrace: %v", err)
	}

	var f struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	var spans, instants, metas int
	for _, ev := range f.TraceEvents {
		switch {
		case ev.Ph == "M":
			metas++
		case ev.Ph == "X" && strings.HasPrefix(ev.Name, "trace "):
			spans++
			if ev.Pid != 0 {
				t.Errorf("packet span on pid %d, want 0", ev.Pid)
			}
			if ev.Dur <= 0 {
				t.Errorf("packet span dur = %v, want > 0", ev.Dur)
			}
		case ev.Ph == "i":
			instants++
			if ev.Pid < 1 || ev.Pid > 2 {
				t.Errorf("hop instant on pid %d, want router pid 1..2", ev.Pid)
			}
		}
	}
	if spans != 1 {
		t.Errorf("packet spans = %d, want 1", spans)
	}
	if instants != 3 {
		t.Errorf("hop instants = %d, want 3", instants)
	}
	// process_name for packets and for the 2 routers.
	if metas != 3 {
		t.Errorf("metadata events = %d, want 3", metas)
	}
}

// TestChromeHopOrdinals: each instant's "hop" arg is the record's ordinal
// within its trace, ordered by At, then ring index (router name), then ring
// position — so records with equal At on different rings get a stable order
// whatever order they were appended in.
func TestChromeHopOrdinals(t *testing.T) {
	tr := NewTracer(1, 0, 64)
	r2 := tr.Ring("R2") // registered first; ring order is by name regardless
	r1 := tr.Ring("R1")
	id, other := tr.SampleID("p1", 1), tr.SampleID("p1", 2)
	r2.Append(Hop{TraceID: id, At: 5, Face: 20, Event: HopFanOut})
	r2.Append(Hop{TraceID: id, At: 5, Face: 21, Event: HopFanOut})
	r1.Append(Hop{TraceID: other, At: 1, Face: 9, Event: HopEncapsulate})
	r1.Append(Hop{TraceID: id, At: 5, Face: 10, Event: HopFanOut})
	r1.Append(Hop{TraceID: id, At: 3, Face: 11, Event: HopEncapsulate})

	export := func() []byte {
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, tr); err != nil {
			t.Fatalf("WriteChromeTrace: %v", err)
		}
		return buf.Bytes()
	}
	doc := export()
	if again := export(); !bytes.Equal(doc, again) {
		t.Fatal("two exports of the same rings differ")
	}
	var f struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Args struct {
				Trace string `json:"trace"`
				Face  int64  `json:"face"`
				Hop   int    `json:"hop"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &f); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	// Face identifies each record: R1's At=3 first, then the At=5 records in
	// ring order (R1 before R2) and ring position (face 20 before 21). The
	// other trace counts from 0 on its own.
	want := map[int64]int{11: 0, 10: 1, 20: 2, 21: 3, 9: 0}
	got := make(map[int64]int)
	for _, ev := range f.TraceEvents {
		if ev.Ph == "i" {
			got[ev.Args.Face] = ev.Args.Hop
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("hop by face = %v, want %v", got, want)
	}
}

// TestWriteChromeTraceEmpty: a nil tracer still produces a schema-valid
// (empty) trace.
func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatalf("WriteChromeTrace(nil): %v", err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("ValidateChromeTrace: %v", err)
	}
}

// TestValidateChromeTraceRejects: malformed documents are caught.
func TestValidateChromeTraceRejects(t *testing.T) {
	bad := []struct {
		name string
		doc  string
	}{
		{"not json", "{"},
		{"no traceEvents", `{}`},
		{"missing name", `{"traceEvents":[{"ph":"i","ts":1,"pid":0,"tid":0}]}`},
		{"bad phase", `{"traceEvents":[{"name":"x","ph":"Q","ts":1,"pid":0,"tid":0}]}`},
		{"missing ts", `{"traceEvents":[{"name":"x","ph":"i","pid":0,"tid":0}]}`},
		{"missing pid", `{"traceEvents":[{"name":"x","ph":"i","ts":1,"tid":0}]}`},
		{"negative dur", `{"traceEvents":[{"name":"x","ph":"X","ts":1,"dur":-5,"pid":0,"tid":0}]}`},
		{"missing dur", `{"traceEvents":[{"name":"x","ph":"X","ts":1,"pid":0,"tid":0}]}`},
	}
	for _, tt := range bad {
		if err := ValidateChromeTrace([]byte(tt.doc)); err == nil {
			t.Errorf("%s: validator accepted %s", tt.name, tt.doc)
		}
	}
	ok := `{"traceEvents":[{"name":"x","ph":"M","pid":0,"tid":0}]}`
	if err := ValidateChromeTrace([]byte(ok)); err != nil {
		t.Errorf("validator rejected minimal valid doc: %v", err)
	}
}
