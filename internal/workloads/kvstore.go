package workloads

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"flick"
	"flick/internal/platform"
	"flick/internal/sim"
)

// kvStoreSource is a near-data processing scenario from the paper's
// motivation (§I, §II-D): a key-value table lives in the device's DRAM
// (think NVMe-resident index), and the host performs lookups. With Flick
// the lookup function is annotated isa=nxp and the thread migrates next to
// the table; the baseline probes the table across PCIe. A batched variant
// amortizes one migration over a whole query batch — the "how much work
// per migration" knob in an application-shaped setting.
//
// Register budget: the lookup kernels consume a0/a2/a3 and clobber t0-t2;
// the batch kernels additionally use a1/a4/a5; main keeps its loop state
// in t3-t5/fp and spills the rest to the stack and to the kvsum cell.
const kvStoreSource = `
; Near-data key-value store.

.func main isa=host
    ; a0 = query buffer (first batch is warm-up), a1 = measured queries,
    ; a2 = table base, a3 = bucket mask, a4 = batch size,
    ; a5 = mode (0 flick, 1 baseline)
    mov  t3, a0          ; cursor
    mov  fp, a1          ; remaining measured queries
    mov  t4, a4          ; batch size
    mov  t5, a5          ; mode

    ; Warm-up batch (TLBs, I-caches, NxP stack).
    mov  a0, t3
    mov  a1, t4
    call run_batch
    shli t0, t4, 3
    add  t3, t3, t0      ; skip the warm-up slots

    sys  4
    push a0              ; start ns
qloop:
    mov  a0, t3
    mov  a1, t4
    call run_batch       ; returns the batch's value sum in a0
    la   t0, kvsum       ; accumulate the checksum in memory: the host
    ld8  t1, [t0+0]      ; lookup kernels clobber t0-t2
    add  t1, t1, a0
    st8  t1, [t0+0]
    shli t0, t4, 3
    add  t3, t3, t0
    sub  fp, fp, t4
    bne  fp, zr, qloop
    sys  4
    pop  t1
    sub  a0, a0, t1      ; elapsed ns
    halt
.endfunc

.func run_batch isa=host
    push ra
    bne  t5, zr, direct
    call kv_batch_nxp    ; one migration serves the whole batch
    pop  ra
    ret
direct:
    call kv_batch_host
    pop  ra
    ret
.endfunc

; Batched lookup: a0 = query slice, a1 = count, a2 = table, a3 = mask.
; Returns the sum of looked-up values. Uses only a-registers for state so
; the host variant cannot clobber main's loop registers.
.func kv_batch_nxp isa=nxp
    push ra
    mov  a4, a0          ; cursor
    mov  a5, a1          ; remaining
    movi a1, 0           ; sum
bloop:
    ld8  a0, [a4+0]
    call kv_lookup_nxp   ; same-ISA call: no migration
    add  a1, a1, a0
    addi a4, a4, 8
    addi a5, a5, -1
    bne  a5, zr, bloop
    mov  a0, a1
    pop  ra
    ret
.endfunc

.func kv_batch_host isa=host
    push ra
    mov  a4, a0
    mov  a5, a1
    movi a1, 0
bloop:
    ld8  a0, [a4+0]
    call kv_lookup_host
    add  a1, a1, a0
    addi a4, a4, 8
    addi a5, a5, -1
    bne  a5, zr, bloop
    mov  a0, a1
    pop  ra
    ret
.endfunc

; kv_lookup: a0 = key, a2 = table base, a3 = bucket mask → a0 = value
; (0 on miss). Clobbers t0-t2 only.
.func kv_lookup_nxp isa=nxp
    li   t0, 0x9E3779B97F4A7C15
    mul  t0, a0, t0
    shri t0, t0, 32
    and  t0, t0, a3
probe:
    shli t1, t0, 4
    add  t1, t1, a2
    ld8  t2, [t1+0]
    beq  t2, a0, found
    beq  t2, zr, miss
    addi t0, t0, 1
    and  t0, t0, a3
    jmp  probe
found:
    ld8  a0, [t1+8]
    ret
miss:
    movi a0, 0
    ret
.endfunc

.func kv_lookup_host isa=host
    li   t0, 0x9E3779B97F4A7C15
    mul  t0, a0, t0
    shri t0, t0, 32
    and  t0, t0, a3
probe:
    shli t1, t0, 4
    add  t1, t1, a2
    ld8  t2, [t1+0]
    beq  t2, a0, found
    beq  t2, zr, miss
    addi t0, t0, 1
    and  t0, t0, a3
    jmp  probe
found:
    ld8  a0, [t1+8]
    ret
miss:
    movi a0, 0
    ret
.endfunc

.data kvsum isa=host align=8
    .word64 0
.enddata
`

// KVConfig parameterizes the key-value workload.
type KVConfig struct {
	// Entries is the number of populated keys; the table is sized to the
	// next power of two at ≤50% load.
	Entries int
	// Queries is the number of measured lookups (must be a multiple of
	// Batch; a warm-up batch is added on top).
	Queries int
	// Batch is the number of lookups per cross-ISA call.
	Batch int
	// Baseline keeps the lookups on the host.
	Baseline bool
	Seed     int64
	Params   *platform.Params
	// Obs, when non-nil, receives the run's observability report.
	Obs *sim.Observer
}

// KVResult is one measurement.
type KVResult struct {
	PerLookup  sim.Duration
	Checksum   uint64 // sum of returned values (validated against Go)
	Migrations int
}

// RunKVStore builds the table in board DRAM, runs the query stream, and
// validates the value-sum checksum against a Go-side model of the table.
func RunKVStore(cfg KVConfig) (KVResult, error) {
	if cfg.Entries <= 0 {
		cfg.Entries = 4096
	}
	if cfg.Queries <= 0 {
		cfg.Queries = 256
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 1
	}
	if cfg.Queries%cfg.Batch != 0 {
		return KVResult{}, fmt.Errorf("workloads: queries (%d) must be a multiple of batch (%d)", cfg.Queries, cfg.Batch)
	}

	const golden = 0x9E3779B97F4A7C15
	buckets := 1
	for buckets < cfg.Entries*2 {
		buckets <<= 1
	}
	mask := uint64(buckets - 1)

	rng := rand.New(rand.NewSource(cfg.Seed + 7331))
	keys := make([]uint64, cfg.Entries)
	model := make(map[uint64]uint64, cfg.Entries)
	table := make([]uint64, buckets*2) // (key, value) pairs
	for i := range keys {
		var k uint64
		for {
			k = rng.Uint64() | 1 // nonzero keys; zero marks empty buckets
			if _, dup := model[k]; !dup {
				break
			}
		}
		v := rng.Uint64()
		keys[i] = k
		model[k] = v
		idx := (k * golden >> 32) & mask
		for table[idx*2] != 0 {
			idx = (idx + 1) & mask
		}
		table[idx*2] = k
		table[idx*2+1] = v
	}

	// Query stream: one warm-up batch then the measured queries; mostly
	// hits with some misses.
	total := cfg.Batch + cfg.Queries
	queries := make([]uint64, total)
	var wantSum uint64
	for i := range queries {
		if rng.Intn(8) == 0 {
			queries[i] = rng.Uint64() | 1 // probable miss → value 0
		} else {
			queries[i] = keys[rng.Intn(len(keys))]
		}
		if i >= cfg.Batch {
			wantSum += model[queries[i]]
		}
	}

	sys, err := flick.Build(flick.Config{
		Sources: map[string]string{"kv.fasm": kvStoreSource},
		Params:  cfg.Params,
		Obs:     cfg.Obs,
	})
	if err != nil {
		return KVResult{}, err
	}
	defer sys.Close()
	tableVA, err := sys.Program.NxPHeap.Alloc(uint64(len(table))*8, 4096)
	if err != nil {
		return KVResult{}, err
	}
	queryVA, err := sys.Program.NxPHeap.Alloc(uint64(len(queries))*8, 4096)
	if err != nil {
		return KVResult{}, err
	}
	if err := storeU64s(sys, tableVA, table); err != nil {
		return KVResult{}, err
	}
	if err := storeU64s(sys, queryVA, queries); err != nil {
		return KVResult{}, err
	}

	mode := uint64(0)
	if cfg.Baseline {
		mode = 1
	}
	elapsedNS, err := sys.RunProgram("main",
		queryVA, uint64(cfg.Queries), tableVA, mask, uint64(cfg.Batch), mode)
	cfg.Obs.Collect(sys)
	if err != nil {
		return KVResult{}, err
	}

	sumVA, err := sys.Symbol("kvsum")
	if err != nil {
		return KVResult{}, err
	}
	var buf [8]byte
	if err := readVA(sys, sumVA, buf[:]); err != nil {
		return KVResult{}, err
	}
	gotSum := binary.LittleEndian.Uint64(buf[:])
	if gotSum != wantSum {
		return KVResult{}, fmt.Errorf("workloads: kvstore checksum %#x, want %#x", gotSum, wantSum)
	}

	return KVResult{
		PerLookup:  sim.Duration(elapsedNS) * sim.Nanosecond / sim.Duration(cfg.Queries),
		Checksum:   gotSum,
		Migrations: sys.Runtime.Stats().H2NCalls,
	}, nil
}

// readVA is the inverse setup backdoor: an untimed read at a program VA.
func readVA(sys *flick.System, va uint64, b []byte) error {
	w, err := sys.Kernel.Tables().Walk(va)
	if err != nil {
		return err
	}
	return sys.Kernel.Phys().Read(w.PhysAddr, b)
}

// KVPoint is one batch-size sample of the near-data trade-off.
type KVPoint struct {
	Batch      int
	Flick      sim.Duration // per lookup
	Baseline   sim.Duration
	Normalized float64
}

// MeasureKVPoint measures one batch-size sample: Flick and host-direct
// lookups over the same seeded table and query stream. Self-contained, so
// batch sizes can run concurrently as scheduler jobs. params, when
// non-nil, overrides both machines' configuration; obs, when non-nil,
// receives both machines' observability reports.
func MeasureKVPoint(batch, queries int, seed int64, params *platform.Params, obs *sim.Observer) (KVPoint, error) {
	q := queries - queries%batch
	if q == 0 {
		q = batch
	}
	f, err := RunKVStore(KVConfig{Queries: q, Batch: batch, Seed: seed, Params: params, Obs: obs})
	if err != nil {
		return KVPoint{}, fmt.Errorf("flick batch %d: %w", batch, err)
	}
	base, err := RunKVStore(KVConfig{Queries: q, Batch: batch, Baseline: true, Seed: seed, Params: params, Obs: obs})
	if err != nil {
		return KVPoint{}, fmt.Errorf("baseline batch %d: %w", batch, err)
	}
	return KVPoint{
		Batch:      batch,
		Flick:      f.PerLookup,
		Baseline:   base.PerLookup,
		Normalized: float64(base.PerLookup) / float64(f.PerLookup),
	}, nil
}
