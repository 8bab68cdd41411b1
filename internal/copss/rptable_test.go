package copss

import (
	"reflect"
	"testing"

	"github.com/icn-gaming/gcopss/internal/cd"
)

func TestRPTableSetAndCover(t *testing.T) {
	tbl := NewRPTable()
	if err := tbl.Set("/rp1", []cd.CD{cd.MustParse("/"), cd.MustParse("/1")}, 1); err != nil {
		t.Fatalf("Set rp1: %v", err)
	}
	if err := tbl.Set("/rp2", []cd.CD{cd.MustParse("/2")}, 1); err != nil {
		t.Fatalf("Set rp2: %v", err)
	}

	name, prefix, ok := tbl.CoverOf(cd.MustParse("/1/4/obj"))
	if !ok || name != "/rp1" || prefix != cd.MustParse("/1") {
		t.Errorf("CoverOf = %q %v %v", name, prefix, ok)
	}
	name, _, ok = tbl.CoverOf(cd.MustParse("/"))
	if !ok || name != "/rp1" {
		t.Errorf("CoverOf(/) = %q %v", name, ok)
	}
	if _, _, ok := tbl.CoverOf(cd.MustParse("/3")); ok {
		t.Error("CoverOf should miss unserved CD")
	}
}

func TestRPTablePrefixFreeInvariant(t *testing.T) {
	tbl := NewRPTable()
	if err := tbl.Set("/rp1", []cd.CD{cd.MustParse("/1/1")}, 1); err != nil {
		t.Fatal(err)
	}
	// "/1" would cover rp1's "/1/1" → reject.
	if err := tbl.Set("/rp2", []cd.CD{cd.MustParse("/1")}, 1); err == nil {
		t.Error("Set should reject prefix-free violation across RPs")
	}
	// An RP may replace its own set wholesale with a newer sequence.
	if err := tbl.Set("/rp1", []cd.CD{cd.MustParse("/1")}, 2); err != nil {
		t.Errorf("self-replacement rejected: %v", err)
	}
	// Stale announcements are rejected.
	if err := tbl.Set("/rp1", []cd.CD{cd.MustParse("/9")}, 2); err == nil {
		t.Error("stale announcement accepted")
	}
	if err := tbl.Set("", []cd.CD{cd.MustParse("/9")}, 1); err == nil {
		t.Error("empty RP name accepted")
	}
}

func TestRPTableIntersecting(t *testing.T) {
	tbl := NewRPTable()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(tbl.Set("/rpA", []cd.CD{cd.MustParse("/1/1"), cd.MustParse("/1/2")}, 1))
	must(tbl.Set("/rpB", []cd.CD{cd.MustParse("/1/3"), cd.MustParse("/1/")}, 1))
	must(tbl.Set("/rpC", []cd.CD{cd.MustParse("/2")}, 1))

	// serving walks RPs in order and keeps the ones Serves picks for sub.
	serving := func(sub cd.CD) []string {
		var out []string
		for _, info := range tbl.RPs() {
			if info.Serves(sub) {
				out = append(out, info.Name)
			}
		}
		return out
	}
	// Subscribing to /1 requires joining rpA and rpB but not rpC.
	if got := serving(cd.MustParse("/1")); !reflect.DeepEqual(got, []string{"/rpA", "/rpB"}) {
		t.Errorf("RPs serving /1 = %v", got)
	}
	// Subscribing to /1/2 only needs rpA.
	if got := serving(cd.MustParse("/1/2")); !reflect.DeepEqual(got, []string{"/rpA"}) {
		t.Errorf("RPs serving /1/2 = %v", got)
	}
	// Root subscription joins everyone, in name order.
	if got := serving(cd.Root()); !reflect.DeepEqual(got, []string{"/rpA", "/rpB", "/rpC"}) {
		t.Errorf("RPs serving root = %v", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, info := range tbl.RPs() {
			info.Serves(cd.MustParse("/1"))
		}
	})
	if allocs != 0 {
		t.Errorf("walking RPs with Serves: %v allocs/op, want 0", allocs)
	}
}

func TestRPTableRemoveGetNamesClone(t *testing.T) {
	tbl := NewRPTable()
	if err := tbl.Set("/rp1", []cd.CD{cd.MustParse("/1")}, 1); err != nil {
		t.Fatal(err)
	}
	info, ok := tbl.Get("/rp1")
	if !ok || info.Name != "/rp1" || len(info.Prefixes) != 1 {
		t.Errorf("Get = %+v %v", info, ok)
	}
	cl := tbl.Clone()
	if !tbl.Remove("/rp1") || tbl.Remove("/rp1") {
		t.Error("Remove misreports")
	}
	if tbl.Len() != 0 {
		t.Error("Len after remove")
	}
	if cl.Len() != 1 {
		t.Error("Clone shares state with original")
	}
	if got := cl.Names(); !reflect.DeepEqual(got, []string{"/rp1"}) {
		t.Errorf("Names = %v", got)
	}
}

func TestPartitionPrefixes(t *testing.T) {
	ps := PartitionPrefixes([]string{"1", "2", "3", "4", "5"})
	if len(ps) != 6 {
		t.Fatalf("len = %d", len(ps))
	}
	if err := cd.PrefixFree(ps); err != nil {
		t.Errorf("not prefix-free: %v", err)
	}
	if ps[0] != cd.MustParse("/") {
		t.Errorf("first prefix = %v, want world airspace leaf", ps[0])
	}
}
