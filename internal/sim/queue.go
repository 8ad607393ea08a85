package sim

// Two-level event queue: a calendar ring of time buckets for the near
// horizon plus a typed overflow min-heap for far-future events.
//
// The previous implementation was a container/heap over []event. Every
// Push boxed the event into an interface{} and every Pop boxed it back,
// which made the queue the simulator's dominant allocation site (87% of
// all allocations in the run-ahead scale-out profile) and put the GC on the
// hot path of every short phase. This queue stores events by value in
// three typed areas and allocates only when a bucket or the overflow heap
// grows beyond its high-water capacity:
//
//   - ring: qRingBuckets buckets of qGranule virtual time each, covering
//     the window [base, base+qRingSpan). Sleep targets, phase joins, and
//     phantom-cursor re-pushes land here: one append, no sift. Buckets
//     are unsorted; the head is the minimum (at, seq) of the first
//     non-empty bucket, found by a short scan that resumes from the last
//     known-empty prefix (scan only moves backward on a Push below it).
//   - early: the rare events below base. base re-anchors only when the
//     queue drains or the window jumps forward to the overflow minimum,
//     and a later push may still legally land below the new base (e.g. a
//     Sleep crossing a RunUntil deadline while the head is far away).
//     Every early event is below every ring event by construction, so
//     when early is non-empty the head scan is over early alone.
//   - ovf: a plain typed binary min-heap for events at or beyond the ring
//     window. Invariant: every overflow event is at >= base+qRingSpan, so
//     the overflow can only supply the head by re-anchoring the ring when
//     both early and ring are empty.
//
// Orderding is exactly the old heap's: strict (at, seq) lexicographic
// minimum. The areas never change the comparison, only where the
// candidates live, so swapping this queue in is invisible to the engine's
// observable schedule — the byte-identity differential suites hold.
//
// The head position is cached between operations: Peek after Peek is two
// loads, and the sequential Sleep fast path (which peeks on every sleep)
// stays O(1). A Push of a smaller event moves the cache to the new event;
// Pop invalidates it.

const (
	// qGranuleShift fixes the bucket width at 2^17 ps ≈ 131 ns: a few
	// buckets per conservative lookahead window (825 ns), so a phase's
	// worth of near events spreads over a handful of buckets.
	qGranuleShift = 17
	qGranule      = Duration(1) << qGranuleShift
	// qRingBuckets buckets cover ≈ 8.4 µs — comfortably past the
	// lookahead window and the densest event clusters (instruction
	// sleeps, link latencies), while DMA completions and coarse timers
	// fall through to the overflow heap.
	qRingBuckets = 64
	qRingSpan    = Duration(qRingBuckets) << qGranuleShift
)

// qPos locates the cached head event within the queue.
type qPos struct {
	area   int8 // qInRing or qInEarly
	bucket int  // ring bucket (qInRing only)
	idx    int  // index within the bucket or early slice
}

const (
	qInRing int8 = iota
	qInEarly
)

type eventQueue struct {
	ring  [qRingBuckets][]event
	ringN int  // events resident in the ring
	base  Time // inclusive start of the ring window, multiple of qGranule
	scan  int  // every ring bucket below this index is empty

	early []event // events below base (rare; all below every ring event)
	ovf   []event // typed binary min-heap; all at >= base+qRingSpan

	head   qPos // cached location of the minimum event
	headOK bool
	size   int
}

// evLess is the queue's total order: time, then scheduling sequence.
func evLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Len returns the number of queued events.
func (q *eventQueue) Len() int { return q.size }

// limit returns the exclusive upper bound of the ring window, saturating
// at maxTime.
func (q *eventQueue) limit() Time {
	l := q.base + Time(qRingSpan)
	if l < q.base {
		return maxTime
	}
	return l
}

// rebase re-anchors the ring window so that at falls into bucket zero's
// granule. Only legal when the ring and early areas are empty.
func (q *eventQueue) rebase(at Time) {
	q.base = at &^ (Time(qGranule) - 1)
	q.scan = 0
}

// Push inserts an event, keeping the cached head correct.
func (q *eventQueue) Push(ev event) {
	if q.size == 0 {
		// Empty queue: re-anchor the window at the event so it lands in
		// the ring and `early` stays empty on the common path.
		q.rebase(ev.at)
	}
	q.size++
	switch {
	case ev.at < q.base:
		q.early = append(q.early, ev)
		if q.headOK && evLess(&ev, q.headEvent()) {
			q.head = qPos{area: qInEarly, idx: len(q.early) - 1}
		}
	case ev.at < q.limit():
		b := int((ev.at - q.base) >> qGranuleShift)
		if q.ring[b] == nil {
			// First use of this bucket: skip the 1-2-4-8 append ladder.
			// Buckets keep their capacity across pops and window rotations,
			// so this is a one-time cost per bucket actually touched.
			q.ring[b] = make([]event, 0, 16)
		}
		q.ring[b] = append(q.ring[b], ev)
		q.ringN++
		if b < q.scan {
			q.scan = b
		}
		if q.headOK && evLess(&ev, q.headEvent()) {
			q.head = qPos{area: qInRing, bucket: b, idx: len(q.ring[b]) - 1}
		}
	default:
		// Beyond the window: overflow heap. Every overflow event is at
		// least base+qRingSpan, i.e. strictly above every ring and early
		// event, so the cached head never needs to move here.
		q.ovfPush(ev)
	}
}

// headEvent returns the cached head. Only valid while headOK.
func (q *eventQueue) headEvent() *event {
	if q.head.area == qInEarly {
		return &q.early[q.head.idx]
	}
	return &q.ring[q.head.bucket][q.head.idx]
}

// Head returns the minimum event without removing it, or nil when the
// queue is empty. The pointer is valid until the next Push or Pop.
func (q *eventQueue) Head() *event {
	if q.size == 0 {
		return nil
	}
	q.ensureHead()
	return q.headEvent()
}

// Pop removes and returns the minimum event. Panics on an empty queue.
func (q *eventQueue) Pop() event {
	q.ensureHead()
	pos := q.head
	var ev event
	if pos.area == qInEarly {
		ev = q.early[pos.idx]
		last := len(q.early) - 1
		q.early[pos.idx] = q.early[last]
		q.early = q.early[:last]
	} else {
		b := q.ring[pos.bucket]
		ev = b[pos.idx]
		last := len(b) - 1
		b[pos.idx] = b[last]
		q.ring[pos.bucket] = b[:last]
		q.ringN--
	}
	q.size--
	q.headOK = false
	return ev
}

// ensureHead locates the minimum event and caches its position. The
// priority argument: early events are all below base, ring events all in
// [base, limit), overflow events all at or above limit — so the areas are
// totally ordered and the head comes from the first non-empty one.
func (q *eventQueue) ensureHead() {
	if q.headOK {
		return
	}
	if q.size == 0 {
		panic("sim: head of an empty event queue")
	}
	if len(q.early) > 0 {
		min := 0
		for i := 1; i < len(q.early); i++ {
			if evLess(&q.early[i], &q.early[min]) {
				min = i
			}
		}
		q.head = qPos{area: qInEarly, idx: min}
		q.headOK = true
		return
	}
	if q.ringN == 0 {
		q.migrate()
	}
	b := q.scan
	for len(q.ring[b]) == 0 {
		b++
	}
	q.scan = b
	bucket := q.ring[b]
	min := 0
	for i := 1; i < len(bucket); i++ {
		if evLess(&bucket[i], &bucket[min]) {
			min = i
		}
	}
	q.head = qPos{area: qInRing, bucket: b, idx: min}
	q.headOK = true
}

// migrate re-anchors the ring at the overflow minimum and moves every
// overflow event inside the new window into the ring. Called only when
// early and ring are empty and the overflow is not.
func (q *eventQueue) migrate() {
	q.rebase(q.ovf[0].at)
	limit := q.limit()
	for len(q.ovf) > 0 && q.ovf[0].at < limit {
		ev := q.ovfPop()
		b := int((ev.at - q.base) >> qGranuleShift)
		q.ring[b] = append(q.ring[b], ev)
		q.ringN++
	}
}

// forEach visits every queued event in unspecified order. The callback
// must not mutate the queue.
func (q *eventQueue) forEach(fn func(*event)) {
	for i := range q.early {
		fn(&q.early[i])
	}
	for b := range q.ring {
		bucket := q.ring[b]
		for i := range bucket {
			fn(&bucket[i])
		}
	}
	for i := range q.ovf {
		fn(&q.ovf[i])
	}
}

// ovfPush inserts into the typed overflow min-heap.
func (q *eventQueue) ovfPush(ev event) {
	q.ovf = append(q.ovf, ev)
	i := len(q.ovf) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(&q.ovf[i], &q.ovf[parent]) {
			break
		}
		q.ovf[i], q.ovf[parent] = q.ovf[parent], q.ovf[i]
		i = parent
	}
}

// ovfPop removes the overflow minimum.
func (q *eventQueue) ovfPop() event {
	top := q.ovf[0]
	last := len(q.ovf) - 1
	q.ovf[0] = q.ovf[last]
	q.ovf = q.ovf[:last]
	i, n := 0, last
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && evLess(&q.ovf[l], &q.ovf[min]) {
			min = l
		}
		if r < n && evLess(&q.ovf[r], &q.ovf[min]) {
			min = r
		}
		if min == i {
			break
		}
		q.ovf[i], q.ovf[min] = q.ovf[min], q.ovf[i]
		i = min
	}
	return top
}
