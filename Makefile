GO ?= go

.PHONY: all build vet fmt-check lint lint-audit test race fuzz bench bench-smoke cover loc ci

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails when gofmt would change any file (it lists them) or cannot
# parse one (non-zero exit, error on stderr).
fmt-check:
	@out=$$(gofmt -l .) || exit 1; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# lint runs go vet, the format gate and the repo's own invariant checkers
# (cmd/gcopsslint): the forbidden-identifier rules clockfree, randinject and
# nopanic (one table-driven analyzer package), errcheckedfaces, obsnames,
# sharedpkt, maporder, guardedby. Allocation-free hot paths are pinned by
# AllocsPerRun tests, which `make test` runs.
lint: vet fmt-check
	$(GO) run ./cmd/gcopsslint ./...

# lint-audit lists every //lint:allow waiver with its file:line, the waived
# checkers and the stated reason, so accepted exceptions stay reviewable.
lint-audit:
	$(GO) run ./cmd/gcopsslint -audit ./...

test:
	$(GO) test ./...

# race covers the packages with real concurrency: the TCP daemon, the
# router/migration machinery, the end-to-end tests in the module root, the
# telemetry plumbing (packet-path rings are written by the daemon loop while
# scrapers snapshot them), the wire decoder (its string table is touched from
# reader goroutines) and the NDN tables (FIB slices are handed across calls).
# The testbed runs on one event loop; its goldens, determinism suites and
# flow-control chaos gate run under -race too because they drive the
# mutex-guarded fault injector and trace rings end to end. CI's race job
# calls this target, so the lists live here only.
RACE_TESTBED = TestBackboneDeterminism|TestBackboneGolden|TestMicrobenchGolden|TestFlowControlAdaptiveBeatsStatic|TestFlowChaosDeterminism
race:
	$(GO) test -race -count=1 ./internal/transport ./internal/core ./internal/flowctl ./internal/obs/... ./internal/copss ./internal/bloom ./internal/wire ./internal/ndn .
	$(GO) test -race -count=1 -run '$(RACE_TESTBED)' ./internal/testbed

# bench prints the go-test microbenchmarks (module root, the event queue and
# the telemetry hot paths) with -benchmem. They are for measuring while
# working on one layer; the repository benchmark that judges a change is
# BENCHMARK.json, run with `sh bench/run.sh`.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem . ./internal/event ./internal/obs ./internal/obs/trace

# bench-smoke compiles and smoke-tests the repository benchmark. bench/ is a
# module of its own (BENCHMARK.json runs it with `sh bench/run.sh`), so
# `go build ./...` and `go test ./...` at the root never see it; its smoke
# test drives all eight modes for 0.3 s each with the correctness checks on.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test -count=1 ./...

# fuzz is a short smoke of the native fuzz targets; CI's fuzz-smoke job calls it.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=20s ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/cd
	$(GO) test -run='^$$' -fuzz=FuzzMigrationHandoff -fuzztime=30s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzFaultSchedule -fuzztime=20s ./internal/faultnet
	$(GO) test -run='^$$' -fuzz=FuzzWindowEstimator -fuzztime=20s ./internal/flowctl
	$(GO) test -run='^$$' -fuzz=FuzzEventHeap -fuzztime=20s ./internal/event
	$(GO) test -run='^$$' -fuzz=FuzzContentStoreLRU -fuzztime=20s ./internal/ndn
	$(GO) test -run='^$$' -fuzz=FuzzSTIndex -fuzztime=20s ./internal/copss
	$(GO) test -run='^$$' -fuzz=FuzzReadBurstChunking -fuzztime=20s ./internal/transport

# cover gates statement coverage on the reliability-critical packages: the
# router core (ARQ, migration), the broker (QR fetch retry), the fault
# injector itself, the event scheduler, the topology builders, flow control
# and the trace-driven simulator. The chaos and backbone matrices exercise
# them but live in testbed, so the gate here is about each package's own
# unit tests.
COVER_PKGS = ./internal/core ./internal/broker ./internal/faultnet ./internal/event ./internal/topo ./internal/flowctl ./internal/sim
COVER_MIN  = 70
cover:
	@set -e; for pkg in $(COVER_PKGS); do \
	  pct=$$($(GO) test -cover $$pkg | awk '{for(i=1;i<=NF;i++) if($$i ~ /%/){gsub(/%.*/,"",$$i); print $$i}}'); \
	  if [ -z "$$pct" ]; then echo "$$pkg: no coverage reported"; exit 1; fi; \
	  echo "$$pkg coverage: $$pct%"; \
	  awk -v p="$$pct" -v m=$(COVER_MIN) 'BEGIN{exit !(p>=m)}' || \
	    { echo "FAIL: $$pkg coverage $$pct% is below $(COVER_MIN)%"; exit 1; }; \
	done

# loc prints the size figures ROADMAP tracks: lines of non-test Go and of
# _test.go, both outside bench/ and testdata, and DESIGN.md's byte count,
# which fails the target above DESIGN_MAX_BYTES.
LOC_FIND = find . -name '*.go' -not -path './bench/*' -not -path '*/testdata/*'
DESIGN_MAX_BYTES = 55000
loc:
	@echo "non-test Go: $$($(LOC_FIND) -not -name '*_test.go' | xargs cat | wc -l)"
	@echo "_test.go:    $$($(LOC_FIND) -name '*_test.go' | xargs cat | wc -l)"
	@n=$$(wc -c < DESIGN.md); echo "DESIGN.md:   $$n bytes (max $(DESIGN_MAX_BYTES))"; \
	  if [ $$n -gt $(DESIGN_MAX_BYTES) ]; then echo "FAIL: DESIGN.md is over $(DESIGN_MAX_BYTES) bytes" >&2; exit 1; fi

ci: build lint test bench-smoke race cover fuzz
