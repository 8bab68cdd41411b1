package sim

import (
	"math/rand"
	"testing"

	"github.com/icn-gaming/gcopss/internal/cd"
)

func TestLoadMonitorWindow(t *testing.T) {
	m := NewLoadMonitor(4)
	served := []cd.CD{cd.MustParse("/1"), cd.MustParse("/2")}
	for i := 0; i < 3; i++ {
		m.Record(cd.MustParse("/1/1"))
	}
	m.Record(cd.MustParse("/2/5"))
	if m.Total() != 4 {
		t.Errorf("Total = %d", m.Total())
	}
	counts := m.Counts(served)
	if counts[cd.MustParse("/1")] != 3 || counts[cd.MustParse("/2")] != 1 {
		t.Errorf("Counts = %v", counts)
	}
	// The window slides: four more /2 records evict all /1 entries.
	for i := 0; i < 4; i++ {
		m.Record(cd.MustParse("/2/1"))
	}
	counts = m.Counts(served)
	if counts[cd.MustParse("/1")] != 0 || counts[cd.MustParse("/2")] != 4 {
		t.Errorf("post-slide Counts = %v", counts)
	}
	// Degenerate constructor input.
	if NewLoadMonitor(0).Total() != 0 {
		t.Error("NewLoadMonitor(0) broken")
	}
}

func TestSplitByLoadBalances(t *testing.T) {
	m := NewLoadMonitor(100)
	served := []cd.CD{
		cd.MustParse("/"), cd.MustParse("/1"), cd.MustParse("/2"),
		cd.MustParse("/3"), cd.MustParse("/4"), cd.MustParse("/5"),
	}
	// Load: /1 is hot (60), others get 8 each.
	for i := 0; i < 60; i++ {
		m.Record(cd.MustParse("/1/1"))
	}
	for _, p := range served[2:] {
		for i := 0; i < 8; i++ {
			m.Record(p.MustChild("x"))
		}
	}
	keep, move := m.SplitByLoad(served, rand.New(rand.NewSource(1)))
	if len(keep) == 0 || len(move) == 0 {
		t.Fatalf("degenerate split: keep=%v move=%v", keep, move)
	}
	if len(keep)+len(move) != len(served) {
		t.Errorf("prefixes lost: %v + %v", keep, move)
	}
	counts := m.Counts(served)
	load := func(ps []cd.CD) int {
		n := 0
		for _, p := range ps {
			n += counts[p]
		}
		return n
	}
	lk, lm := load(keep), load(move)
	total := lk + lm
	if lk < total/4 || lm < total/4 {
		t.Errorf("unbalanced split: keep=%d move=%d", lk, lm)
	}
	if err := cd.PrefixFree(append(append([]cd.CD(nil), keep...), move...)); err != nil {
		t.Errorf("split broke prefix-freedom: %v", err)
	}
}

func TestSplitByLoadSinglePrefix(t *testing.T) {
	m := NewLoadMonitor(10)
	served := []cd.CD{cd.MustParse("/1")}
	keep, move := m.SplitByLoad(served, nil)
	if len(keep) != 1 || len(move) != 0 {
		t.Errorf("split of singleton = %v / %v", keep, move)
	}
	// Two prefixes with zero load must still split 1/1.
	keep, move = m.SplitByLoad([]cd.CD{cd.MustParse("/1"), cd.MustParse("/2")}, nil)
	if len(keep) != 1 || len(move) != 1 {
		t.Errorf("cold split = %v / %v", keep, move)
	}
}
