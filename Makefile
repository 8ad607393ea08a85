GO ?= go

.PHONY: all build vet test race check lint-isa fmt-check bench bench-hotloop bench-check cover fuzz matrix clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The scheduler's determinism guarantee only means something if the
# concurrent paths are data-race free; -race is part of the default gate.
race:
	$(GO) test -race ./...

check: build vet fmt-check lint-isa race matrix

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
# kernel, multibin, asm) dispatch through isa.Backend and its registry,
# never on a concrete ISA's identity. Adding an ISA must not touch these
# packages, so naming one here is a regression. Tests are exempt — they
# pin concrete encodings on purpose.
ISA_CONCRETE = isa\.(ISAHost|ISANxP|ISADsp|ISACmp|HostCodec|NxpCodec|DspCodec|CmpCodec|NxpInstrLen|DspInstrLen)
lint-isa:
	@bad=$$(grep -nE '$(ISA_CONCRETE)' $$(find internal/cpu internal/kernel internal/multibin internal/asm \
		-name '*.go' ! -name '*_test.go') /dev/null); \
	if [ -n "$$bad" ]; then \
		echo "lint-isa: concrete ISA references in registry-dispatch packages:"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "lint-isa: clean"

# The artifact matrix (cmd/flicksim/matrix_test.go): every byte-identity
# relation between flicksim runs — -jobs 1 ≡ -jobs 8, default ≡ reference
# engine, spelled-out defaults ≡ plain, and testdata/golden — as one
# table. It skips under -race, so check runs it on its own.
matrix:
	$(GO) test -count=1 -run TestArtifactMatrix ./cmd/flicksim

# The hot-loop record: end-to-end scale-out throughput, the interpreter's
# steady-state step, the translate hit path, and the event engine's three
# unit costs (a process handoff, a timer wake, and a queue pop and push at
# a constant occupancy). Each benchmark runs five times; cmd/benchcheck
# gates the median, because single runs of the engine's unit costs swing
# past the 15% gate on an unchanged tree.
HOTLOOP_BENCH = $(GO) test -run '^$$' -count 5 -benchmem -json \
	-bench 'BenchmarkScaleOutThroughput$$|BenchmarkCoreStep|BenchmarkTranslateHit|BenchmarkProcessSwitch|BenchmarkTimerWake|BenchmarkQueueHold' \
	./internal/cpu ./internal/mmu ./internal/sim .

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .
	$(HOTLOOP_BENCH) > BENCH_hotloop.json

# Hot-loop perf trajectory: re-run the hot-loop benchmarks and refresh the
# checked-in record (see docs/PERFORMANCE.md).
bench-hotloop:
	$(HOTLOOP_BENCH) > BENCH_hotloop.json

# Bench regression gate: re-run the hot-loop benchmarks into a scratch
# capture and fail if the median of any benchmark in the checked-in record
# regressed more than 15% or is missing from the capture (see
# cmd/benchcheck).
# Refresh the record with `make bench-hotloop` after a deliberate perf
# change.
bench-check:
	@tmp=$$(mktemp) && \
	$(HOTLOOP_BENCH) > $$tmp && \
	$(GO) run ./cmd/benchcheck BENCH_hotloop.json $$tmp; \
	st=$$?; rm -f $$tmp; exit $$st

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
