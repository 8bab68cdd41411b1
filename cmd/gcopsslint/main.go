// Command gcopsslint runs the repository's invariant checkers over Go
// package patterns and exits non-zero if any diagnostic fires.
//
//	gcopsslint ./...                  # everything, tests included
//	gcopsslint -tests=false ./...     # production code only
//	gcopsslint -checks nopanic,sharedpkt ./internal/wire
//	gcopsslint -json ./...            # machine-readable diagnostics (CI artifact)
//	gcopsslint -audit ./...           # list every //lint:allow waiver
//
// Checkers (see internal/analysis/* and DESIGN.md "Machine-checked
// invariants"):
//
//	clockfree        no time.Now/Since in the deterministic core
//	randinject       no global math/rand outside package main
//	nopanic          no panic in packet-handling packages
//	errcheckedfaces  wire/transport errors must be handled
//	obsnames         telemetry metric names are literal and well-formed
//	sharedpkt        handler-received packets are immutable; mutate via COW copies
//	maporder         map iteration order must not reach the event stream
//	guardedby        //gcopss:guardedby fields only accessed with their mutex held
//
// The first three are the rules of one table-driven analyzer package
// (internal/analysis/forbidden). Packages are analyzed in dependency order
// with a shared fact store, so the interprocedural checkers (maporder,
// guardedby) see summaries of every already-analyzed dependency.
// Allocation-free hot paths are pinned by AllocsPerRun tests, not here.
//
// A finding is waived in place with `//lint:allow <checker> <reason>` on the
// flagged line or the line above it; for maporder/guardedby the reason is
// mandatory. A waiver naming no registered checker is itself a finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"slices"
	"sort"
	"strings"

	"github.com/icn-gaming/gcopss/internal/analysis"
	"github.com/icn-gaming/gcopss/internal/analysis/errcheckedfaces"
	"github.com/icn-gaming/gcopss/internal/analysis/forbidden"
	"github.com/icn-gaming/gcopss/internal/analysis/guardedby"
	"github.com/icn-gaming/gcopss/internal/analysis/load"
	"github.com/icn-gaming/gcopss/internal/analysis/maporder"
	"github.com/icn-gaming/gcopss/internal/analysis/obsnames"
	"github.com/icn-gaming/gcopss/internal/analysis/sharedpkt"
)

var all = append(slices.Clone(forbidden.Analyzers),
	errcheckedfaces.Analyzer,
	obsnames.Analyzer,
	sharedpkt.Analyzer,
	maporder.Analyzer,
	guardedby.Analyzer,
)

func main() {
	os.Exit(run())
}

// diagJSON is one finding in -json output.
type diagJSON struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run() int {
	var (
		tests    = flag.Bool("tests", true, "also lint test files")
		checks   = flag.String("checks", "", "comma-separated subset of checkers to run (default: all)")
		jsonOut  = flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
		auditOut = flag.Bool("audit", false, "list every //lint:allow waiver with file:line and reason, then exit 0")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: gcopsslint [flags] [packages]\n\nflags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\ncheckers:\n")
		for _, a := range all {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-16s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	analyzers, err := selectAnalyzers(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gcopsslint:", err)
		return 2
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Packages(".", *tests, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gcopsslint:", err)
		return 2
	}

	if *auditOut {
		audit(pkgs)
		return 0
	}

	// Packages arrive in dependency order from the loader; one shared fact
	// store lets importing packages consume their dependencies' summaries.
	facts := analysis.NewFactStore()
	var diags []diagJSON
	for _, pkg := range pkgs {
		add := func(name string, found []analysis.Diagnostic) {
			for _, d := range found {
				pos := pkg.Unit.Fset.Position(d.Pos)
				diags = append(diags, diagJSON{
					File:     pos.Filename,
					Line:     pos.Line,
					Column:   pos.Column,
					Analyzer: name,
					Message:  d.Message,
				})
			}
		}
		for _, a := range analyzers {
			found, err := analysis.RunUnitFacts(a, pkg.Unit, facts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gcopsslint:", err)
				return 2
			}
			add(a.Name, found)
		}
		// A waiver must name a registered checker, whichever ones -checks ran.
		add("lint:allow", analysis.UnknownAllows(pkg.Unit.Files, func(name string) bool { return lookup(name) != nil }))
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Analyzer < b.Analyzer
	})

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []diagJSON{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "gcopsslint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: %s (%s)\n", d.File, d.Line, d.Column, d.Message, d.Analyzer)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "gcopsslint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// audit prints every //lint:allow waiver in the loaded packages, with its
// position, the waived checkers and the stated reason, so waived invariants
// stay greppable and reviewable.
func audit(pkgs []*load.Package) {
	type waiver struct {
		pos    token.Position
		names  []string
		reason string
	}
	var waivers []waiver
	for _, pkg := range pkgs {
		analysis.Allows(pkg.Unit.Files, func(_ *ast.File, c *ast.Comment, names []string, reason string) {
			waivers = append(waivers, waiver{pkg.Unit.Fset.Position(c.Pos()), names, reason})
		})
	}
	sort.Slice(waivers, func(i, j int) bool {
		a, b := waivers[i], waivers[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		return a.pos.Line < b.pos.Line
	})
	for _, w := range waivers {
		reason := w.reason
		if reason == "" {
			reason = "(no reason given)"
		}
		fmt.Printf("%s:%d: %s: %s\n", w.pos.Filename, w.pos.Line, strings.Join(w.names, ","), reason)
	}
	fmt.Fprintf(os.Stderr, "gcopsslint: %d waiver(s)\n", len(waivers))
}

// lookup returns the registered checker with the given name, or nil.
func lookup(name string) *analysis.Analyzer {
	for _, a := range all {
		if a.Name == name {
			return a
		}
	}
	return nil
}

func selectAnalyzers(checks string) ([]*analysis.Analyzer, error) {
	if checks == "" {
		return all, nil
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(checks, ",") {
		name = strings.TrimSpace(name)
		a := lookup(name)
		if a == nil {
			return nil, fmt.Errorf("unknown checker %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}
