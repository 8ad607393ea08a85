package pcie

import (
	"fmt"

	"flick/internal/faultinj"
	"flick/internal/mem"
	"flick/internal/sim"
)

// DefaultQueueCap bounds the engine's submission queue. Descriptor traffic
// in this platform is tiny (at most 32 descriptors per mailbox), so the
// bound is far above anything the mailbox can generate.
const DefaultQueueCap = 256

// Request is one DMA transfer: Size bytes from Src in SrcSpace to Dst in
// DstSpace. Every request crosses the link (local copies don't need a DMA
// engine in this platform). OnDone, if non-nil, runs at completion time —
// typical uses are bumping a status register the NxP scheduler polls, or
// raising an MSI toward the host. It runs in a timer callback, on
// whichever coroutine holds the baton, so it may signal conditions, arm
// timers or submit, but must not sleep or wait; a panic in it surfaces
// from Env.Run. ok is false when the transfer was aborted by an injected
// fault: no data was written and the caller must retry or fail the
// operation.
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
// fixed engine overhead per transfer. It runs no code of its own: two
// timers it owns drive it, one that starts the head request and one that
// completes the transfer in flight.
type Engine struct {
	env   *sim.Env
	link  LinkParams
	extra sim.Duration // per-transfer engine overhead (setup, completion)
	name  string       // instance name: metric prefix and fault site

	queue []Request
	busy  bool         // a transfer is starting or in flight
	cur   Request      // the transfer in flight
	cost  sim.Duration // its modeled duration

	// The engine's timers and their callbacks, bound once so that arming
	// them allocates nothing.
	startT, completeT   sim.Timer
	startFn, completeFn func()

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

// NewEngine creates a DMA engine in env.
func NewEngine(env *sim.Env, link LinkParams, overhead sim.Duration) *Engine {
	return NewEngineAt(env, link, overhead, "dma")
}

// NewEngineAt creates a named DMA engine instance: the name prefixes its
// metrics ("<name>.transfers", ...) and doubles as its fault-injection
// site ("<name>.fail" is tried before the generic "dma.fail" rule).
// Multi-board platforms give each board's engine its own name ("dma",
// "dma1", "dma2", ...), keeping the first board's names — and its
// fault-stream draws — identical to a one-engine build.
func NewEngineAt(env *sim.Env, link LinkParams, overhead sim.Duration, name string) *Engine {
	e := &Engine{env: env, link: link, extra: overhead, name: name}
	e.startFn, e.completeFn = e.start, e.complete
	reg := env.Metrics()
	reg.Gauge(name+".transfers", func() uint64 { return uint64(e.stats.Transfers) })
	reg.Gauge(name+".bytes", func() uint64 { return uint64(e.stats.Bytes) })
	reg.Gauge(name+".busy_ns", func() uint64 { return uint64(e.stats.Busy / sim.Nanosecond) })
	e.mTransferNS = reg.Histogram(name + ".transfer_ns")
	return e
}

// Name returns the engine's instance name.
func (e *Engine) Name() string { return e.name }

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

// Submit enqueues a transfer, which proceeds asynchronously. It may be
// called from a simulation process or a timer callback. Submit cannot
// block, so a full queue panics. An idle engine starts the request from a
// zero-delay timer, so the start takes its turn after the events already
// queued for now.
func (e *Engine) Submit(req Request) {
	if req.Size <= 0 {
		panic(fmt.Sprintf("pcie: dma submit with size %d", req.Size))
	}
	if len(e.queue) >= DefaultQueueCap {
		panic(fmt.Sprintf("pcie: dma queue full (cap %d)", DefaultQueueCap))
	}
	e.queue = append(e.queue, req)
	if len(e.queue) > e.stats.PeakQueue {
		e.stats.PeakQueue = len(e.queue)
	}
	if !e.busy {
		e.busy = true
		e.env.Arm(&e.startT, 0, e.startFn)
	}
}

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// TransferCost returns the modeled duration of one n-byte transfer.
func (e *Engine) TransferCost(n int) sim.Duration {
	return e.extra + e.link.BurstLatency(n)
}

// start takes the head request in flight and arms its completion.
func (e *Engine) start() {
	// Shift the rest down rather than re-slice past the head, which
	// would shed capacity until a submit reallocates: the queue keeps
	// its backing array, so a transfer allocates nothing once the queue
	// has reached its peak depth.
	e.cur = e.queue[0]
	n := copy(e.queue, e.queue[1:])
	e.queue[n] = Request{}
	e.queue = e.queue[:n]
	e.cost = e.TransferCost(e.cur.Size)
	if d, ok := e.inj.DelayAt(e.name, "dma", "delay"); ok {
		e.cost += d
	}
	e.env.Arm(&e.completeT, e.cost, e.completeFn)
}

// complete finishes the transfer in flight, then starts the next queued
// request at once or leaves the engine idle.
func (e *Engine) complete() {
	e.finish(e.cur, e.cost)
	if len(e.queue) > 0 {
		e.start()
		return
	}
	e.busy = false
}

// finish lands one transfer at its completion time and reports it to the
// submitter.
func (e *Engine) finish(req Request, cost sim.Duration) {
	if e.inj.RollAt(e.name, "dma", "fail") {
		// The burst aborts mid-flight: nothing reaches the
		// destination, and the submitter hears about it.
		e.stats.Failed++
		e.stats.Busy += cost
		e.env.Emit(sim.Event{Comp: e.name, Kind: sim.KindDMA, Addr: req.Src, Aux: req.Dst, Size: int64(req.Size), Note: req.Tag + "!fail"})
		if req.OnDone != nil {
			req.OnDone(e.env.Now(), false)
		}
		return
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
	e.env.Emit(sim.Event{Comp: e.name, Kind: sim.KindDMA, Addr: req.Src, Aux: req.Dst, Size: int64(req.Size), Note: req.Tag})
	if req.OnDone != nil {
		req.OnDone(e.env.Now(), true)
	}
	if e.inj.RollAt(e.name, "dma", "dup") {
		// Replayed burst: the same bytes land again and the
		// completion fires a second time. Receivers dedupe on
		// descriptor sequence numbers, so this must be a no-op
		// at the protocol layer.
		e.env.Emit(sim.Event{Comp: e.name, Kind: sim.KindDMA, Addr: req.Src, Aux: req.Dst, Size: int64(req.Size), Note: req.Tag + "!dup"})
		if req.OnDone != nil {
			req.OnDone(e.env.Now(), true)
		}
	}
}
