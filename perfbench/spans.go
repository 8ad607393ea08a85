package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer of the simulator.
// Spans of one repetition share a run id; probes use run id -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing: the untraced run only takes the phase timings it needs
// for the end-to-end metrics.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its id (0 when not recording).
func (r *recorder) begin(parent, run int, name, detail string) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: run, Name: name, Detail: detail,
		Start: int64(time.Since(r.origin))})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = int64(time.Since(r.origin))
}

// adopt appends the spans a child process recorded, renumbered after the
// recorder's own and shifted onto its clock (origin is the child's zero,
// in Unix ns), and returns every span recorded so far.
func (r *recorder) adopt(origin int64, spans []span) []span {
	base, shift := len(r.spans), origin-r.origin.UnixNano()
	for _, s := range spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		s.Start += shift
		s.End += shift
		r.spans = append(r.spans, s)
	}
	return r.spans
}

// write stores every span as JSON at path.
func (r *recorder) write(path string) error {
	b, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// selfTimes returns, for each span name, the summed self time of the spans
// with that name and run id: a span's duration minus the union of its
// children's intervals.
func selfTimes(spans []span, run int) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.Run == run {
			out[s.Name] += s.dur() - covered(s, children[s.ID])
		}
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return time.Duration(total + curHi - curLo)
}
