package forbidden

import (
	"testing"

	"github.com/icn-gaming/gcopss/internal/analysis"
	"github.com/icn-gaming/gcopss/internal/analysis/analysistest"
)

func analyzer(t *testing.T, name string) *analysis.Analyzer {
	t.Helper()
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no rule named %s", name)
	return nil
}

func TestClockfree(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analyzer(t, "clockfree"),
		"internal/core/clocky", // true positives + //lint:allow escape hatch
		"other/clean",          // wall clock is fine outside the core
	)
}

func TestRandinject(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analyzer(t, "randinject"),
		"rnd/library", // true positives + escape hatch + threaded-rand negatives
		"rnd/mainpkg", // package main is exempt
	)
}

func TestNopanic(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analyzer(t, "nopanic"),
		"internal/wire/panicky", // true positive, test-file exemption, escape hatch
		"other/tool",            // panic is fine outside the packet path
	)
}
