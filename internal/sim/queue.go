package sim

// The event queue is a typed 4-ary min-heap over []event, ordered by
// (at, seq). Every event carries a unique seq, so the order is strict and
// total: any correct priority queue pops the same sequence, and the
// queue's shape never shows in the schedule.
//
// Events are stored by value, not behind container/heap, whose interface{}
// boxing allocated on every Push and Pop and once made the queue the
// simulator's dominant allocation site; the slice allocates only when it
// outgrows its high-water capacity. Push and Pop move a hole instead of
// swapping, one event copy per level. Four children per node halve a
// binary heap's depth: a pop makes as many comparisons and moves half as
// many events.
type eventQueue struct {
	h []event
}

// evLess is the queue's total order: time, then scheduling sequence.
func evLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Len returns the number of queued events.
func (q *eventQueue) Len() int { return len(q.h) }

// Head returns the minimum event without removing it, or nil when the
// queue is empty. The pointer is valid until the next Push or Pop.
func (q *eventQueue) Head() *event {
	if len(q.h) == 0 {
		return nil
	}
	return &q.h[0]
}

// Push inserts an event, moving the hole up from a new leaf until ev fits.
// An event that stays at the leaf, as every timer armed in time order
// does, is written once, by the append.
func (q *eventQueue) Push(ev event) {
	h := append(q.h, ev)
	q.h = h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !evLess(&ev, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	if i < len(h)-1 {
		h[i] = ev
	}
}

// Pop removes and returns the minimum event. Panics on an empty queue. The
// last leaf fills the hole the root leaves, moving it down past every
// smaller child. The smallest of four children is picked from two
// independent pairs and then their winners: two dependent branches per
// level instead of a linear scan's three, which cut a pop and push at the
// traffic workload's occupancy by about a quarter.
func (q *eventQueue) Pop() event {
	h := q.h
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	q.h = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		if c+1 < n && evLess(&h[c+1], &h[c]) {
			m = c + 1
		}
		if o := c + 2; o < n {
			if o+1 < n && evLess(&h[o+1], &h[o]) {
				o++
			}
			if evLess(&h[o], &h[m]) {
				m = o
			}
		}
		if !evLess(&h[m], &last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return top
}

// forEach visits every queued event in unspecified order. The callback
// must not mutate the queue.
func (q *eventQueue) forEach(fn func(*event)) {
	for i := range q.h {
		fn(&q.h[i])
	}
}
