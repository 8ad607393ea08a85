GO ?= go

.PHONY: all build vet test race race-lifecycle check lint-isa fmt-check perfbench-smoke bench bench-hotloop bench-check profile cover fuzz matrix clean

all: check

build:
	$(GO) build ./...

# perfbench is its own module (it imports this one through a replace
# directive), so the root ./... never compiles it; vet it too, so a rename
# here that breaks the benchmark fails the gate. This builds and vets
# only; it runs no benchmark.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

test:
	$(GO) test ./...

# The scheduler's determinism guarantee only means something if the
# concurrent paths are data-race free; -race is part of the default gate.
race:
	$(GO) test -race ./...

# The engine's lifecycle under -race at one and four Ps, repeated: a
# process's coroutine and Run's goroutine both touch the Env, so the
# start, handoff, panic, deadlock and Close paths run many times over,
# where one -race pass could miss an unordered access.
race-lifecycle:
	$(GO) test -race -count=10 -cpu 1,4 -run 'Close|Panic|Handoffs|ParallelEnvs|RunUntil|Deadlock|Daemon' ./internal/sim
	$(GO) test -race -count=3 -cpu 1,4 -run 'TestCloseEndsDeadlockedMachine|TestDeadlockErrorNamesStuckTasks|TestRoundTripAllocs|TestRoundTripHandoffs' .

check: build vet fmt-check lint-isa perfbench-smoke race race-lifecycle matrix

# perfbench's own tests (its module, perfbench/go.mod): they build the
# benchmark against this tree and run every workload briefly, checking
# its digests and metric contract, so a change that breaks the benchmark
# fails here rather than when the benchmark is next run.
perfbench-smoke:
	cd perfbench && $(GO) test ./...

# Formatting gate: every tracked Go file must be gofmt-clean. Files under
# .bench_build/ (perfbench's build tree) are never checked.
fmt-check:
	@files=$$(git ls-files '*.go' | grep -v '^\.bench_build/') || \
		{ echo "fmt-check: no tracked Go files found"; exit 1; }; \
	bad=$$(gofmt -l $$files); \
	if [ -n "$$bad" ]; then \
		echo "fmt-check: files not gofmt-clean (run gofmt -w):"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "fmt-check: clean"

# The ISA-registry contract: the execution and toolchain layers (cpu,
# kernel, multibin, asm), the Flick runtime (core) and the public API
# (flick.go) dispatch through isa.Backend and its registry, never on a
# concrete ISA's identity. Adding an ISA must not touch these files, so
# naming one here is a regression. Tests are exempt — they pin concrete
# encodings on purpose.
ISA_CONCRETE = isa\.(ISAHost|ISANxP|ISADsp|ISACmp|HostCodec|NxpCodec|DspCodec|CmpCodec|NxpInstrLen|DspInstrLen)
lint-isa:
	@bad=$$(grep -nE '$(ISA_CONCRETE)' flick.go $$(find internal/cpu internal/kernel internal/multibin internal/asm \
		internal/core -name '*.go' ! -name '*_test.go') /dev/null); \
	if [ -n "$$bad" ]; then \
		echo "lint-isa: concrete ISA references in registry-dispatch code:"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "lint-isa: clean"

# The artifact matrix (cmd/flicksim/matrix_test.go): every byte-identity
# relation between flicksim runs — -jobs 1 ≡ -jobs 8, default ≡ reference
# engine, spelled-out defaults ≡ plain, and testdata/golden — as one
# table. Under -race (the race target) its two slow Quick-scale cells
# skip, so check also runs it on its own.
matrix:
	$(GO) test -count=1 -run TestArtifactMatrix ./cmd/flicksim

# The hot-loop record: end-to-end scale-out throughput, the interpreter's
# steady-state step, the translate hit path, one virtual data access on a
# huge page, the event engine's three unit costs (a process handoff, a
# timer wake, and a queue pop and push at a constant occupancy), one DMA
# descriptor transfer awaited by a process, one Flick round trip in each
# direction, and Table IV's largest Quick-scale graph draw. Each
# benchmark runs five times; cmd/benchcheck gates the median, because
# single runs of the engine's unit costs swing past the 15% gate on an
# unchanged tree.
HOTLOOP_BENCH = $(GO) test -run '^$$' -count 5 -benchmem -json \
	-bench 'BenchmarkScaleOutThroughput$$|BenchmarkCoreStep|BenchmarkTranslateHit|BenchmarkVirtAccess|BenchmarkProcessSwitch|BenchmarkTimerWake|BenchmarkQueueHold|BenchmarkDMADescriptor|BenchmarkFlickRoundTrip|BenchmarkGenerateRMAT' \
	./internal/cpu ./internal/mmu ./internal/sim ./internal/pcie ./internal/workloads .

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .
	$(HOTLOOP_BENCH) > BENCH_hotloop.json

# Hot-loop perf trajectory: re-run the hot-loop benchmarks and refresh the
# checked-in record (see docs/PERFORMANCE.md).
bench-hotloop:
	$(HOTLOOP_BENCH) > BENCH_hotloop.json

# Bench regression gate: re-run the hot-loop benchmarks into
# $(BENCH_CAPTURE) and fail if the median of any benchmark in the
# checked-in record regressed more than 15% or is missing from the capture
# (see cmd/benchcheck). The capture stays behind for CI to publish.
# Refresh the record with `make bench-hotloop` after a deliberate perf
# change.
BENCH_CAPTURE = .bench_build/bench-hotloop.json
bench-check:
	@mkdir -p $(dir $(BENCH_CAPTURE))
	$(HOTLOOP_BENCH) > $(BENCH_CAPTURE)
	$(GO) run ./cmd/benchcheck BENCH_hotloop.json $(BENCH_CAPTURE)

# Where `flicksim all` spends its CPU, by package: one profiled -jobs 1
# run of every paper experiment, then the flat samples of
# `go tool pprof -top` summed per package, largest first. Run it before
# and after a perf change to see which layers the saving came from. The
# profile stays in $(PROFILE) for `go tool pprof`.
PROFILE = .bench_build/cpu.pprof
profile:
	@mkdir -p $(dir $(PROFILE))
	$(GO) build -o .bench_build/flicksim ./cmd/flicksim
	.bench_build/flicksim -jobs 1 -quiet -cpuprofile $(PROFILE) all > /dev/null
	@$(GO) tool pprof -top -nodecount=1000000 -unit=ms .bench_build/flicksim $(PROFILE) 2>/dev/null | \
	awk '$$1 ~ /^[0-9.]+ms$$/ && $$2 ~ /%$$/ { \
		name = $$6; gsub(/\[[^]]*\]/, "", name); \
		dir = ""; if (match(name, /.*\//)) { dir = substr(name, 1, RLENGTH); name = substr(name, RLENGTH + 1) } \
		sub(/\..*/, "", name); ms[dir name] += $$1 + 0; total += $$1 + 0 } \
		END { for (p in ms) printf "%9.0fms %5.1f%%  %s\n", ms[p], 100 * ms[p] / total, p; \
			printf "%9.0fms %5.1f%%  total\n", total, 100 }' | sort -rn

# Per-package coverage floors: 70% on the layers the observability work
# locks down, 80% on the traffic plane its statistical suite covers. Fails
# if any package drops below its floor.
COVER_FLOORS = ./internal/sim:70 ./internal/isa:70 ./internal/runner:70 ./internal/traffic:80
cover:
	@for entry in $(COVER_FLOORS); do \
		pkg=$${entry%:*}; floor=$${entry##*:}; \
		pct=$$($(GO) test -cover $$pkg | grep -o 'coverage: [0-9.]*%' | grep -o '[0-9.]*'); \
		echo "$$pkg coverage: $$pct% (floor $$floor%)"; \
		if awk -v p="$$pct" -v f="$$floor" 'BEGIN { exit !(p+0 < f) }'; then \
			echo "$$pkg below $$floor% floor"; exit 1; \
		fi; \
	done

# Short fuzz pass over every fuzz target; CI runs this target.
fuzz:
	$(GO) test ./internal/isa -run '^$$' -fuzz FuzzDecode -fuzztime 10s
	$(GO) test ./internal/isa -run '^$$' -fuzz FuzzEncodeDecodeRoundTrip -fuzztime 10s
	$(GO) test ./internal/isa -run '^$$' -fuzz FuzzCmpCodec -fuzztime 10s
	$(GO) test ./internal/asm -run '^$$' -fuzz FuzzAssemble -fuzztime 10s
	$(GO) test ./internal/kernel -run '^$$' -fuzz FuzzBoardScheduler -fuzztime 10s
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzCrossDomainOrdering -fuzztime 10s
	$(GO) test . -run '^$$' -fuzz FuzzPlacementRouting -fuzztime 10s

clean:
	$(GO) clean ./...
