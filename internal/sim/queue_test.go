package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// refQueue is the brute-force reference the heap is checked against: a
// flat slice with O(n) minimum selection under the same (at, seq) order.
// Too slow for the engine, trivially correct.
type refQueue []event

func (r *refQueue) push(ev event) { *r = append(*r, ev) }

func (r *refQueue) min() *event {
	q := *r
	min := 0
	for i := 1; i < len(q); i++ {
		if evLess(&q[i], &q[min]) {
			min = i
		}
	}
	return &q[min]
}

func (r *refQueue) pop() event {
	q := *r
	min := 0
	for i := 1; i < len(q); i++ {
		if evLess(&q[i], &q[min]) {
			min = i
		}
	}
	ev := q[min]
	q[min] = q[len(q)-1]
	*r = q[:len(q)-1]
	return ev
}

// popBoth checks the queue's head against the reference minimum, then
// pops both and checks the popped events agree. where labels a failure.
func popBoth(t *testing.T, q *eventQueue, ref *refQueue, where string, args ...any) event {
	t.Helper()
	if h, rm := q.Head(), ref.min(); h.at != rm.at || h.seq != rm.seq {
		t.Fatalf("%s: head (%d,%d), reference (%d,%d)", fmt.Sprintf(where, args...), h.at, h.seq, rm.at, rm.seq)
	}
	got, want := q.Pop(), ref.pop()
	if got.at != want.at || got.seq != want.seq {
		t.Fatalf("%s: popped (%d,%d), reference (%d,%d)", fmt.Sprintf(where, args...), got.at, got.seq, want.at, want.seq)
	}
	return got
}

// TestQueueMatchesReferenceOrdering drives the heap and the reference
// queue in lockstep. Two fixed cases pin pushes below the head with ties
// (a Sleep crossing a RunUntil deadline while the head is far away) and
// ties far in the future, each against its known pop order too. The
// random cases mix Push, Head, Pop and full drains over time spreads from
// exact ties to about a second, with occasional pushes below the head;
// bulk-random also arms a batch of events in random order at the start
// and after each drain. Any divergence in head, pop order or length fails.
func TestQueueMatchesReferenceOrdering(t *testing.T) {
	const far = Time(Second)
	fixed := []struct {
		name string
		push []event
		want []uint64 // pop order, by seq
	}{
		{"below-head-ties", []event{{at: 1 << 30, seq: 10}, {at: 5, seq: 11}, {at: 5, seq: 12}, {at: 3, seq: 13}},
			[]uint64{13, 11, 12, 10}},
		{"far-future-ties", []event{{at: 10, seq: 0}, {at: far + 7, seq: 1}, {at: far + 7, seq: 2}, {at: far + 1, seq: 3}, {at: 3 * far, seq: 4}},
			[]uint64{0, 3, 1, 2, 4}},
	}
	for _, c := range fixed {
		t.Run(c.name, func(t *testing.T) {
			var q eventQueue
			var ref refQueue
			for _, ev := range c.push {
				q.Push(ev)
				ref.push(ev)
			}
			for i, want := range c.want {
				if got := popBoth(t, &q, &ref, "pop %d", i); got.seq != want {
					t.Fatalf("pop %d: seq %d, want %d", i, got.seq, want)
				}
			}
			if q.Len() != 0 {
				t.Fatalf("queue not empty after draining: %d", q.Len())
			}
		})
	}

	random := []struct {
		name string
		span int64 // time range the pushes draw from, relative to a cursor
		bulk int   // events armed in random order when the queue is empty
	}{
		{"dense-ties", 64, 0}, // many events share exact times
		{"spread-100ns", int64(100 * Nanosecond), 0},
		{"spread-10us", int64(10 * Microsecond), 0},
		{"spread-1ms", int64(Millisecond), 0},
		{"far-future", int64(1) << 40, 0}, // about a second
		{"bulk-random", int64(600 * Millisecond), 128},
	}
	for _, dist := range random {
		t.Run(dist.name, func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				rng := rand.New(rand.NewSource(seed))
				var q eventQueue
				var ref refQueue
				var seq uint64
				push := func(at Time) {
					ev := event{at: at, seq: seq}
					seq++
					q.Push(ev)
					ref.push(ev)
				}
				cursor := Time(rng.Int63n(1 << 30))
				var lastAt Time
				for op := 0; op < 4000; op++ {
					if q.Len() == 0 {
						for i := 0; i < dist.bulk; i++ {
							push(cursor.Add(Duration(rng.Int63n(dist.span + 1))))
						}
					}
					switch {
					case q.Len() == 0 || rng.Intn(3) != 0:
						at := cursor.Add(Duration(rng.Int63n(dist.span + 1)))
						if rng.Intn(16) == 0 {
							// Repeat the previous time with a fresh seq: the
							// exact-tie case the (at, seq) order disambiguates.
							at = lastAt
						}
						if q.Len() > 0 && rng.Intn(16) == 0 {
							// Below the current head: the push becomes the
							// new head.
							h := q.Head().at
							at = h - Time(rng.Int63n(int64(h)+1))
						}
						lastAt = at
						push(at)
					case rng.Intn(4) == 0:
						// Drain completely, then move the cursor on.
						for q.Len() > 0 {
							popBoth(t, &q, &ref, "seed %d op %d drain", seed, op)
						}
						cursor = cursor.Add(Duration(rng.Int63n(int64(1) << 35)))
					default:
						// Pops never advance the cursor past the popped event:
						// later pushes may still land at or below it, like a
						// Sleep scheduled from the popped process.
						cursor = popBoth(t, &q, &ref, "seed %d op %d", seed, op).at
					}
					if q.Len() != len(ref) {
						t.Fatalf("seed %d op %d: Len %d, reference %d", seed, op, q.Len(), len(ref))
					}
				}
				for q.Len() > 0 {
					popBoth(t, &q, &ref, "seed %d final drain", seed)
				}
			}
		})
	}
}

// TestQueueForEachVisitsAll checks the frozen-queue iterator: every pushed
// event is visited exactly once, with the queue left intact.
func TestQueueForEachVisitsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q eventQueue
	pushed := map[uint64]bool{}
	for seq := uint64(0); seq < 200; seq++ {
		at := Time(rng.Int63n(int64(1) << 30))
		q.Push(event{at: at, seq: seq})
		pushed[seq] = true
	}
	seen := map[uint64]int{}
	q.forEach(func(ev *event) { seen[ev.seq]++ })
	if len(seen) != len(pushed) {
		t.Fatalf("forEach visited %d distinct events, pushed %d", len(seen), len(pushed))
	}
	for seq, n := range seen {
		if n != 1 || !pushed[seq] {
			t.Fatalf("event seq %d visited %d times (pushed: %v)", seq, n, pushed[seq])
		}
	}
	if q.Len() != len(pushed) {
		t.Fatalf("forEach mutated the queue: Len %d, want %d", q.Len(), len(pushed))
	}
}
