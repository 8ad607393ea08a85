package pcie

import (
	"fmt"

	"flick/internal/faultinj"
	"flick/internal/mem"
	"flick/internal/sim"
)

// DefaultQueueCap bounds the engine's submission queue. Descriptor traffic
// in this platform is tiny (16 ring slots per direction), so the default
// is far above anything the mailbox can generate; bulk-transfer users can
// lower it with SetCapacity to exercise backpressure.
const DefaultQueueCap = 256

// Request is one DMA transfer: Size bytes from Src in SrcSpace to Dst in
// DstSpace. Every request crosses the link (local copies don't need a DMA
// engine in this platform). OnDone, if non-nil, runs at completion time in
// the engine's process context — typical uses are bumping a status register
// the NxP scheduler polls, or raising an MSI toward the host. ok is false
// when the transfer was aborted by an injected fault: no data was written
// and the caller must retry or fail the operation.
type Request struct {
	SrcSpace *mem.AddressSpace
	Src      uint64
	DstSpace *mem.AddressSpace
	Dst      uint64
	Size     int
	Tag      string
	OnDone   func(at sim.Time, ok bool)
}

// Engine is the board's descriptor DMA controller. It serves requests in
// submission order, one at a time, charging the link's burst latency plus a
// fixed engine overhead per transfer. It runs as a simulation process.
type Engine struct {
	env   *sim.Env
	link  LinkParams
	extra sim.Duration // per-transfer engine overhead (setup, completion)
	name  string       // instance name: metric/cond prefix and fault site

	queue []Request
	cap   int
	kick  *sim.Cond
	space *sim.Cond
	stats EngineStats
	inj   *faultinj.Injector
	buf   []byte // reusable bounce buffer for transfers that cannot be viewed

	mTransferNS *sim.Histogram
}

// EngineStats counts the engine's lifetime activity.
type EngineStats struct {
	Transfers int
	Bytes     int64
	Busy      sim.Duration
	Failed    int // transfers aborted by injected faults
	PeakQueue int // high-water mark of the submission queue
}

// NewEngine creates a DMA engine and spawns its service process in env.
func NewEngine(env *sim.Env, link LinkParams, overhead sim.Duration) *Engine {
	return NewEngineAt(env, link, overhead, "dma")
}

// NewEngineAt creates a named DMA engine instance: the name prefixes its
// metrics ("<name>.transfers", ...), its conds, and its service daemon, and
// doubles as its fault-injection site ("<name>.fail" is tried before the
// generic "dma.fail" rule). Multi-board platforms give each board's engine
// its own name ("dma", "dma1", "dma2", ...), keeping the first board's
// names — and its fault-stream draws — identical to a one-engine build.
func NewEngineAt(env *sim.Env, link LinkParams, overhead sim.Duration, name string) *Engine {
	e := &Engine{env: env, link: link, extra: overhead, name: name, cap: DefaultQueueCap}
	e.kick = env.NewCond(name + ".kick")
	e.space = env.NewCond(name + ".space")
	reg := env.Metrics()
	reg.Gauge(name+".transfers", func() uint64 { return uint64(e.stats.Transfers) })
	reg.Gauge(name+".bytes", func() uint64 { return uint64(e.stats.Bytes) })
	reg.Gauge(name+".busy_ns", func() uint64 { return uint64(e.stats.Busy / sim.Nanosecond) })
	e.mTransferNS = reg.Histogram(name + ".transfer_ns")
	env.SpawnDaemon(name+"-engine", e.run)
	return e
}

// Name returns the engine's instance name.
func (e *Engine) Name() string { return e.name }

// SetCapacity bounds the submission queue at n requests (panics if n < 1).
func (e *Engine) SetCapacity(n int) {
	if n < 1 {
		panic(fmt.Sprintf("pcie: dma capacity %d", n))
	}
	e.cap = n
}

// Capacity returns the submission queue bound.
func (e *Engine) Capacity() int { return e.cap }

// SetInjector attaches a fault injector. Injected dma.fail aborts a
// transfer (no data written, OnDone ok=false), dma.delay stretches one,
// and dma.dup delivers a completed burst twice. The queue-depth gauges
// are registered here — only fault-injection runs carry them, keeping
// baseline metrics snapshots unchanged.
func (e *Engine) SetInjector(inj *faultinj.Injector) {
	e.inj = inj
	if inj == nil {
		return
	}
	reg := e.env.Metrics()
	reg.Gauge(e.name+".queue.depth", func() uint64 { return uint64(len(e.queue)) })
	reg.Gauge(e.name+".queue.peak", func() uint64 { return uint64(e.stats.PeakQueue) })
}

// Submit enqueues a transfer. It must be called from a running simulation
// process (core, kernel, or another device); the transfer proceeds
// asynchronously. Submit cannot block, so a full queue panics — callers
// that can wait should use SubmitFrom.
func (e *Engine) Submit(req Request) {
	if req.Size <= 0 {
		panic(fmt.Sprintf("pcie: dma submit with size %d", req.Size))
	}
	if len(e.queue) >= e.cap {
		panic(fmt.Sprintf("pcie: dma queue full (cap %d)", e.cap))
	}
	e.enqueue(req)
}

// SubmitFrom enqueues a transfer from process p, blocking p in virtual
// time while the queue is at capacity.
func (e *Engine) SubmitFrom(p *sim.Proc, req Request) {
	if req.Size <= 0 {
		panic(fmt.Sprintf("pcie: dma submit with size %d", req.Size))
	}
	p.WaitFor(e.space, func() bool { return len(e.queue) < e.cap })
	e.enqueue(req)
}

func (e *Engine) enqueue(req Request) {
	e.queue = append(e.queue, req)
	if len(e.queue) > e.stats.PeakQueue {
		e.stats.PeakQueue = len(e.queue)
	}
	e.kick.Signal()
}

// Pending returns the number of queued (unstarted) transfers.
func (e *Engine) Pending() int { return len(e.queue) }

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// TransferCost returns the modeled duration of one n-byte transfer.
func (e *Engine) TransferCost(n int) sim.Duration {
	return e.extra + e.link.BurstLatency(n)
}

func (e *Engine) run(p *sim.Proc) {
	for {
		p.WaitFor(e.kick, func() bool { return len(e.queue) > 0 })
		// Shift the rest down rather than re-slice past the head, which
		// would shed capacity until an enqueue reallocates: the queue
		// keeps its backing array, so a transfer allocates nothing once
		// the queue has reached its peak depth.
		req := e.queue[0]
		n := copy(e.queue, e.queue[1:])
		e.queue[n] = Request{}
		e.queue = e.queue[:n]
		e.space.Signal()
		cost := e.TransferCost(req.Size)
		if d, ok := e.inj.DelayAt(e.name, "dma", "delay"); ok {
			cost += d
		}
		p.Sleep(cost)
		if e.inj.RollAt(e.name, "dma", "fail") {
			// The burst aborts mid-flight: nothing reaches the
			// destination, and the submitter hears about it.
			e.stats.Failed++
			e.stats.Busy += cost
			p.Env().Emit(sim.Event{Comp: e.name, Kind: sim.KindDMA, Addr: req.Src, Aux: req.Dst, Size: int64(req.Size), Note: req.Tag + "!fail"})
			if req.OnDone != nil {
				req.OnDone(p.Now(), false)
			}
			continue
		}
		// Data becomes visible at completion time. Serve the source
		// directly out of its backing store when it is contiguous
		// materialized RAM/ROM, avoiding the bounce-buffer copy; fall back
		// to a reusable buffer otherwise (MMIO sources, straddling ranges,
		// or a destination sharing the source's store, where the
		// snapshot-then-write order matters).
		src, srcStore, viewOK := req.SrcSpace.View(req.Src, uint64(req.Size))
		if viewOK {
			if dr, _, err := req.DstSpace.Lookup(req.Dst); err == nil && dr.Store() == srcStore {
				viewOK = false
			}
		}
		if !viewOK {
			if cap(e.buf) < req.Size {
				e.buf = make([]byte, req.Size)
			}
			src = e.buf[:req.Size]
			clear(src) // short MMIO reads must observe zeros, as with a fresh buffer
			if err := req.SrcSpace.Read(req.Src, src); err != nil {
				panic(fmt.Sprintf("pcie: dma read %s: %v", req.Tag, err))
			}
		}
		if err := req.DstSpace.Write(req.Dst, src); err != nil {
			panic(fmt.Sprintf("pcie: dma write %s: %v", req.Tag, err))
		}
		e.stats.Transfers++
		e.stats.Bytes += int64(req.Size)
		e.stats.Busy += cost
		e.mTransferNS.Observe(uint64(cost / sim.Nanosecond))
		p.Env().Emit(sim.Event{Comp: e.name, Kind: sim.KindDMA, Addr: req.Src, Aux: req.Dst, Size: int64(req.Size), Note: req.Tag})
		if req.OnDone != nil {
			req.OnDone(p.Now(), true)
		}
		if e.inj.RollAt(e.name, "dma", "dup") {
			// Replayed burst: the same bytes land again and the
			// completion fires a second time. Receivers dedupe on
			// descriptor sequence numbers, so this must be a no-op
			// at the protocol layer.
			p.Env().Emit(sim.Event{Comp: e.name, Kind: sim.KindDMA, Addr: req.Src, Aux: req.Dst, Size: int64(req.Size), Note: req.Tag + "!dup"})
			if req.OnDone != nil {
				req.OnDone(p.Now(), true)
			}
		}
	}
}
