package faultnet

import (
	"strings"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/wire"
)

func TestParseSpecEmpty(t *testing.T) {
	for _, s := range []string{"", "  ", ";", " ; ; "} {
		spec, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		if len(spec.Rules) != 0 {
			t.Fatalf("ParseSpec(%q) = %d rules, want 0", s, len(spec.Rules))
		}
	}
}

func TestParseSpecFull(t *testing.T) {
	spec, err := ParseSpec("R1-R3:loss=0.05,reorder=0.2,delay=1ms,jitter=500us;*:only=ctl,part=150ms..200ms,part=300ms..350ms;R2>R4:dup=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Rules) != 3 {
		t.Fatalf("got %d rules, want 3", len(spec.Rules))
	}
	r := spec.Rules[0]
	if r.Link != "R1-R3" || r.Loss != 0.05 || r.Reorder != 0.2 ||
		r.Delay != time.Millisecond || r.Jitter != 500*time.Microsecond {
		t.Fatalf("rule 0 mismatch: %+v", r)
	}
	r = spec.Rules[1]
	if r.Link != "*" || r.Class != ClassCtl || len(r.Partitions) != 2 {
		t.Fatalf("rule 1 mismatch: %+v", r)
	}
	if r.Partitions[0] != (Window{150 * time.Millisecond, 200 * time.Millisecond}) {
		t.Fatalf("window mismatch: %+v", r.Partitions[0])
	}
	r = spec.Rules[2]
	if r.Link != "R2>R4" || r.Dup != 0.1 {
		t.Fatalf("rule 2 mismatch: %+v", r)
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"loss",                 // not key=value
		"loss=x",               // bad float
		"loss=1.5",             // out of range
		"loss=-0.1",            // out of range
		"loss=NaN",             // NaN
		"dup=2",                // out of range
		"delay=-1ms",           // negative duration
		"delay=zzz",            // unparsable duration
		"part=10ms",            // not a window
		"part=20ms..10ms",      // empty window
		"part=5ms..5ms",        // empty window
		"only=sometimes",       // unknown class
		"speed=11",             // unknown key
		"a-b-c:loss=0.1",       // too many separators
		"-b:loss=0.1",          // empty endpoint
		"a>:loss=0.1",          // empty endpoint
		"bad link:loss=0.1",    // space in link
		"R1-R2:R3-R4:loss=0.1", // colon in params
		":" + "loss=0.1",       // empty link
	}
	for _, s := range bad {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q): expected error", s)
		}
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	specs := []string{
		"loss=0.05",
		"R1-R3:loss=0.05,reorder=0.2,delay=1ms,jitter=500µs",
		"only=ctl,part=150ms..200ms;R2>R4:dup=0.1",
		"R5>R2:only=qr,loss=0.2,dup=0.01,reorder=0.1,delay=2ms,jitter=1ms,part=1ms..2ms,part=3ms..4ms",
	}
	for _, s := range specs {
		spec, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		canon := spec.String()
		spec2, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("re-parse of %q (canonical %q): %v", s, canon, err)
		}
		if got := spec2.String(); got != canon {
			t.Errorf("canonical form not stable: %q -> %q -> %q", s, canon, got)
		}
	}
}

func TestClassMatches(t *testing.T) {
	ctl := []wire.Type{wire.TypeJoin, wire.TypeConfirm, wire.TypeLeave, wire.TypeHandoff,
		wire.TypePrune, wire.TypeFIBAdd, wire.TypeFIBRemove, wire.TypeAck}
	qr := []wire.Type{wire.TypeInterest, wire.TypeData}
	mcast := []wire.Type{wire.TypeMulticast, wire.TypeSubscribe, wire.TypeUnsubscribe}
	all := append(append(append([]wire.Type(nil), ctl...), qr...), mcast...)
	for _, typ := range all {
		if !ClassAll.Matches(typ) {
			t.Errorf("ClassAll must match %v", typ)
		}
	}
	for _, tc := range []struct {
		class Class
		in    []wire.Type
	}{{ClassCtl, ctl}, {ClassQR, qr}, {ClassMcast, mcast}} {
		got := make(map[wire.Type]bool)
		for _, typ := range all {
			got[typ] = tc.class.Matches(typ)
		}
		for _, typ := range all {
			want := false
			for _, w := range tc.in {
				if w == typ {
					want = true
				}
			}
			if got[typ] != want {
				t.Errorf("%v.Matches(%v) = %v, want %v", tc.class, typ, got[typ], want)
			}
		}
	}
}

func TestRuleLinkMatching(t *testing.T) {
	cases := []struct {
		rule string
		link string
		want bool
	}{
		{"*", "R1>R2", true},
		{"R1-R2", "R1>R2", true},
		{"R1-R2", "R2>R1", true},
		{"R1-R2", "R1>R3", false},
		{"R1>R2", "R1>R2", true},
		{"R1>R2", "R2>R1", false},
		{"face3", "face3", true},
		{"face3", "face4", false},
	}
	for _, tc := range cases {
		r := Rule{Link: tc.rule}
		if got := r.matchesLink(tc.link); got != tc.want {
			t.Errorf("Rule{Link:%q}.matchesLink(%q) = %v, want %v", tc.rule, tc.link, got, tc.want)
		}
	}
}

func TestParseSpecNeverPanicsOnJunk(t *testing.T) {
	junk := []string{
		strings.Repeat(";", 100),
		"::::",
		"=",
		",=,",
		"a>b:part=..",
		"\x00\xff",
		"loss=0.1;;dup=0.2",
	}
	for _, s := range junk {
		_, _ = ParseSpec(s) // must not panic; error or success both fine
	}
}
