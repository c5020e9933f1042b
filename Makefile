# Convenience entry points; tier-1 verify is the `verify` target.

GO ?= go

.PHONY: build fmt vet lint lint-sarif lint-taint test race fuzz bench-test verify bench-baseline benchdiff coverage-md report cover smoke

# The packages `make cover` measures, as internal/<package>=<minimum
# statement coverage>.
COVER_FLOORS = obs=85.0 grid=85.0 controlplane=85.0 rms=85.0 sim=85.0

build:
	$(GO) build ./...

# Fails, listing the files, when any Go file in the tree (bench/ and
# testdata included) is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists files that need formatting:"; echo "$$out"; exit 1; fi

# The repository benchmark (bench/) is a module of its own, so the root
# `go vet ./...` does not reach it.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

lint:
	$(GO) run ./cmd/reconlint ./...

lint-sarif:
	$(GO) run ./cmd/reconlint -sarif ./...

# Just the trust-boundary pair: the fast loop while fixing a taint
# finding (the full suite still runs in `make lint`/tier-1).
lint-taint:
	$(GO) run ./cmd/reconlint -run wiretaint,logtaint ./...

test:
	$(GO) test ./...

# The second line repeats the shards=1≡N determinism tests and the
# shutdown barrier under -race (about 10 s): one pass rarely sees a
# shard-scheduling race.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=50 -run 'TestDifferentialShardCount|TestTraceRepeatable|TestShutdownIsABarrier' ./internal/controlplane

# Runs every fuzz target for 10 s, one at a time (`go test -fuzz` takes
# one target of one package per run); `go test` runs only their seed
# corpora. CI runs this as a job of its own, outside verify. A failing
# input is written under the package's testdata/fuzz/<target>/.
FUZZ_TARGETS = task:FuzzParseApp faults:FuzzFaultCursor capability:FuzzParseRequirements \
	controlplane:FuzzDecodeRequest controlplane:FuzzEncodeResponse \
	sim:FuzzSchedulerDifferential benchstat:FuzzParseDoc
fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t#*:}; \
		echo "fuzz: $$name (internal/$$pkg, 10s)"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime 10s ./internal/$$pkg; \
	done

# The repository benchmark (bench/) is a module of its own, so `go test
# ./...` from the root does not reach its tests; they run here, at toy
# sizes.
bench-test:
	cd bench && $(GO) test ./...

# verify is tier-1 plus the perf gate. benchdiff is the perf-regression
# contract: the benchmark families (the event-core queue, the DReAMSim
# sweeps, sink overhead, reconlint and its taint pair, the control
# plane and its wire decode) are re-run and compared against the committed baseline that
# BENCH_BASELINE names (the one place that names the file); an alloc or
# model-metric regression beyond the noise budget
# fails verify. The event-core queue gates on allocs/op alone: its
# baseline reads 0, and a baseline of 0 regresses at any allocation,
# while its B/op and ns/op sit under their absolute floors and only
# report. fmt fails on any file gofmt would change. bench-test
# smoke-runs every workload of the repository benchmark, and cover
# holds the observability, engine, control-plane, matchmaker and
# event-core packages at their coverage floors.
verify: build fmt vet lint test race cover bench-test benchdiff

# --- Performance contract ---
#
# bench-baseline and benchdiff run the IDENTICAL benchmark commands
# (same families, same benchtime, -benchmem on), so allocs/op and the
# model metrics compare apples to apples. At 3x iterations wall time
# never gates (benchdiff's min-iters guard treats it as informational);
# the deterministic metrics — allocs/op, B/op, and the simulator's own
# counters — gate for real, which is what makes this flake-free on a
# shared machine. On a different machine (CI) time gating switches off
# automatically via the env fingerprint in the JSON. BenchmarkQueue
# alone runs 1000 iterations: its rows allocate nothing, and over 3
# iterations an allocation the runtime makes beside the benchmark while
# it runs reads as 1-2 allocs/op (1 process in 20-60 on
# wheel/pending=1000), which its zero baseline would gate; over 1000
# such strays round to 0. Its ns/op, 0.3-5 us, stays under the 50 us
# floor, so wall time still never gates.
BENCHTIME_VERIFY ?= 3x
BENCH_BASELINE   ?= BENCH_PR35.json
BENCH_OUT        ?= /tmp/bench_head.json

# The raw capture goes to a file first (not a pipe) so a failing
# benchmark run fails the target instead of silently truncating the
# snapshot — benchdiff would flag the missing benchmarks as regressions,
# but bench-baseline must never record a partial baseline.
BENCH_RAW ?= /tmp/bench_raw.txt

define BENCH_SNAPSHOT
{ $(GO) test -run xxx -bench 'BenchmarkQueue' -benchtime 1000x -benchmem . \
  && $(GO) test -run xxx -bench 'BenchmarkDReAMSim_ArrivalSweep|BenchmarkDReAMSim_FaultSweep|BenchmarkSinkOverhead' -benchtime $(BENCHTIME_VERIFY) -benchmem . \
  && $(GO) test -run xxx -bench 'BenchmarkReconlint$$|BenchmarkReconlintTaint' -benchtime 1x -benchmem ./cmd/reconlint \
  && $(GO) test -run xxx -bench 'BenchmarkControlPlane|BenchmarkWireDecode' -benchtime $(BENCHTIME_VERIFY) -benchmem ./internal/controlplane ; } > $(BENCH_RAW)
endef

# Re-record the committed baseline. Do this only when a benchmark
# legitimately changed (new benchmark, reviewed perf change) and commit
# the JSON diff with the change that explains it.
bench-baseline:
	$(BENCH_SNAPSHOT)
	$(GO) run ./cmd/benchjson < $(BENCH_RAW) > $(BENCH_BASELINE)

# The perf gate: exit 1 if any gated benchmark regressed beyond its
# noise budget against the committed baseline.
benchdiff:
	$(BENCH_SNAPSHOT)
	$(GO) run ./cmd/benchjson < $(BENCH_RAW) > $(BENCH_OUT)
	$(GO) run ./cmd/benchdiff -old $(BENCH_BASELINE) -new $(BENCH_OUT)

# Regenerate the committed scenario coverage matrix (guarded by
# internal/covmatrix's tier-1 test).
coverage-md:
	$(GO) run ./cmd/covgen -out COVERAGE.md

# Assemble the release report (markdown + HTML) from the last benchdiff
# snapshot — or a fresh one if none exists — plus the coverage matrix.
# Pass SOAK=path/to/gridload.json to include a soak section.
SOAK ?=
report:
	@test -f $(BENCH_OUT) || { echo "report: recording bench snapshot"; $(BENCH_SNAPSHOT) > $(BENCH_OUT); }
	$(GO) run ./cmd/relreport -old $(BENCH_BASELINE) -new $(BENCH_OUT) \
		$(if $(SOAK),-soak $(SOAK)) -md release-report.md -html release-report.html

# Control-plane smoke: boot rmsd, drive 5k tasks from 50 tenants over
# the wire with gridload (which fails on any lost task or conservation
# violation), then require a clean SIGTERM shutdown within 60 seconds.
SMOKE_ADDR ?= 127.0.0.1:7981
smoke:
	$(GO) build -o /tmp/rmsd ./cmd/rmsd
	$(GO) build -o /tmp/gridload ./cmd/gridload
	@set -e; \
	/tmp/rmsd -listen $(SMOKE_ADDR) -shards 8 -seed 1 & pid=$$!; \
	trap 'kill -9 $$pid 2>/dev/null || true' EXIT; \
	/tmp/gridload -addr $(SMOKE_ADDR) -tenants 50 -tasks 100 -conns 8 -seed 1; \
	kill -TERM $$pid; \
	for i in $$(seq 1 60); do \
		if ! kill -0 $$pid 2>/dev/null; then trap - EXIT; echo "smoke: clean shutdown"; exit 0; fi; \
		sleep 1; \
	done; \
	echo "smoke: rmsd did not shut down within 60s"; exit 1

# Enforce statement-coverage floors on the observability, engine,
# control-plane, matchmaker and event-core packages (COVER_FLOORS). Fails if any
# package regresses below its floor or reports no coverage at all (a
# failing test run prints none).
cover:
	@$(GO) test -cover $(foreach f,$(COVER_FLOORS),./internal/$(firstword $(subst =, ,$(f)))) | awk -v floors='$(COVER_FLOORS)' ' \
		BEGIN { \
			n = split(floors, kv, " "); \
			for (i = 1; i <= n; i++) { split(kv[i], p, "="); floor["repro/internal/" p[1]] = p[2] } \
		} \
		/coverage:/ && ($$2 in floor) { \
			split($$0, f, "coverage: "); split(f[2], p, "%"); \
			printf "%-28s %5.1f%%  (floor %.1f%%)\n", $$2, p[1], floor[$$2]; \
			seen[$$2] = 1; \
			if (p[1] + 0 < floor[$$2]) { bad = 1 } \
		} \
		END { \
			for (pkg in floor) if (!(pkg in seen)) { print pkg ": no coverage reported"; bad = 1 } \
			if (bad) { print "coverage below floor"; exit 1 } \
		}'
