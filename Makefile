GO ?= go

.PHONY: all build vet test race check lint-isa bench bench-hotloop bench-check cover fuzz golden clean

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

check: build vet lint-isa race

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

# Golden byte-identity gate: the three-ISA artifacts (plain, 3-board
# scale-out, faulted) and the open-loop traffic sweep must match
# testdata/golden/ byte for byte.
golden:
	$(GO) build -o /tmp/flicksim-golden ./cmd/flicksim
	@dir=$$(mktemp -d) && cd $$dir && \
	/tmp/flicksim-golden -quiet -metrics-out fig5a.metrics.json fig5a > fig5a.txt && \
	/tmp/flicksim-golden -quiet -boards 3 -metrics-out scaleout-b3.metrics.json scaleout > scaleout-b3.txt && \
	/tmp/flicksim-golden -quiet -faults 'dma.fail=0.05,msi.drop=0.1,dma.dup=0.05' -fault-seed 7 \
		-metrics-out fault.metrics.json fig5a table4 > fault.txt && \
	/tmp/flicksim-golden -quiet -boards 2 -duration 4ms traffic > traffic-b2.txt && \
	cd - >/dev/null && \
	for f in fig5a.txt fig5a.metrics.json scaleout-b3.txt scaleout-b3.metrics.json fault.txt fault.metrics.json traffic-b2.txt; do \
		diff -u testdata/golden/$$f $$dir/$$f || exit 1; \
	done && rm -rf $$dir && echo "golden: all artifacts byte-identical"

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .
	$(GO) test -run '^$$' -bench 'BenchmarkScaleOutThroughput$$|BenchmarkCoreStep|BenchmarkTranslateHit' -benchmem -json \
		./internal/cpu ./internal/mmu . > BENCH_hotloop.json

# Hot-loop perf trajectory: re-run the steady-state Step/Translate
# benchmarks and refresh the checked-in record (see docs/PERFORMANCE.md).
bench-hotloop:
	$(GO) test -run '^$$' -bench 'BenchmarkScaleOutThroughput$$|BenchmarkCoreStep|BenchmarkTranslateHit' -benchmem -json \
		./internal/cpu ./internal/mmu . > BENCH_hotloop.json

# Bench regression gate: re-run the hot-loop benchmarks into a scratch
# capture and fail if any benchmark present in the checked-in record
# regressed more than 15% (see cmd/benchcheck). Refresh the record with
# `make bench-hotloop` after a deliberate perf change.
bench-check:
	@tmp=$$(mktemp) && \
	$(GO) test -run '^$$' -bench 'BenchmarkScaleOutThroughput$$|BenchmarkCoreStep|BenchmarkTranslateHit' -benchmem -json \
		./internal/cpu ./internal/mmu . > $$tmp && \
	$(GO) run ./cmd/benchcheck BENCH_hotloop.json $$tmp; \
	st=$$?; rm -f $$tmp; exit $$st

# Per-package coverage floors for the instrumented layers (CI enforces
# 70% on these plus 80% on internal/traffic).
cover:
	$(GO) test -cover ./internal/sim ./internal/isa ./internal/runner ./internal/traffic

# Short fuzz pass over every fuzz target; CI runs the same smoke.
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
