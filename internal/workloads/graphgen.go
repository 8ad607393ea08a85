package workloads

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Dataset describes one of the paper's SNAP graphs. The generator
// synthesizes a graph with the same vertex and edge counts and a similarly
// skewed (social-network-like) degree distribution, since the original
// SNAP files cannot be redistributed here; BFS cost depends on |V|, |E|,
// and the degree skew, which the R-MAT process reproduces.
type Dataset struct {
	Name     string
	Vertices int
	Edges    int
}

// The paper's Table IV datasets.
var (
	Epinions1    = Dataset{Name: "Epinions1", Vertices: 76_000, Edges: 509_000}
	Pokec        = Dataset{Name: "Pokec", Vertices: 1_633_000, Edges: 30_623_000}
	LiveJournal1 = Dataset{Name: "LiveJournal1", Vertices: 4_848_000, Edges: 68_994_000}
)

// Table4Datasets lists the Table IV datasets in paper order.
var Table4Datasets = []Dataset{Epinions1, Pokec, LiveJournal1}

// Scale returns the dataset shrunk by factor (for CI-speed runs); both
// counts scale together so per-vertex/per-edge cost ratios are preserved.
func (d Dataset) Scale(factor int) Dataset {
	if factor <= 1 {
		return d
	}
	return Dataset{
		Name:     fmt.Sprintf("%s/%d", d.Name, factor),
		Vertices: max(d.Vertices/factor, 16),
		Edges:    max(d.Edges/factor, 64),
	}
}

// CSR is a graph in compressed-sparse-row form, the layout the BFS kernels
// traverse in (simulated) memory.
type CSR struct {
	Offsets []uint64 // len V+1, indices into Targets
	Targets []uint64 // len E, destination vertex ids
}

// NumVertices returns |V|.
func (g *CSR) NumVertices() int { return len(g.Offsets) - 1 }

// NumEdges returns |E|.
func (g *CSR) NumEdges() int { return len(g.Targets) }

// Degree returns the out-degree of v.
func (g *CSR) Degree(v int) int { return int(g.Offsets[v+1] - g.Offsets[v]) }

// Graph500's R-MAT partition probabilities: the chance that one recursion
// level picks the top-left quadrant (neither bit set), top-right (the
// destination bit), bottom-left (the source bit), the rest bottom-right.
const rmatA, rmatB, rmatC = 0.57, 0.19, 0.19

// int63Threshold returns the least x for which float64(x)/2^63 >= p: the
// Int63 draw below which rand.Float64's value for that draw, the same
// expression, is below p. The quotient never decreases as x grows, so a
// binary search finds the boundary exactly.
func int63Threshold(p float64) int64 {
	return int64(sort.Search(math.MaxInt64, func(x int) bool { return float64(x)/(1<<63) >= p }))
}

// rmatCuts holds the R-MAT quadrant boundaries as raw Int63 draws, so
// r := rng.Float64(); r < p holds exactly when the draw behind r is below
// the cut for p. one is the cut for 1: a draw at or past it rounds to a
// Float64 of 1, which Float64 redraws.
type rmatCuts struct{ a, ab, abc, one int64 }

func newRMATCuts() rmatCuts {
	return rmatCuts{
		a:   int63Threshold(rmatA),
		ab:  int63Threshold(rmatA + rmatB),
		abc: int63Threshold(rmatA + rmatB + rmatC),
		one: int63Threshold(1),
	}
}

// edge draws one edge of a 2^scale-vertex R-MAT graph from src, the
// first level giving the most significant bits, and consumes exactly the
// draws scale calls of rng.Float64 would. Each "draw is at or past a cut"
// is the sign bit of cut-1-x, so a level's bits come out of arithmetic
// rather than a four-way branch that mispredicts on about every other
// draw: the source bit is set from the a+b cut on, the destination bit in
// [a, a+b) and from a+b+c on.
func (q rmatCuts) edge(src rand.Source, scale int) (s, d uint64) {
	for range scale {
		x := src.Int63()
		for x >= q.one {
			x = src.Int63()
		}
		pastA := uint64(q.a-1-x) >> 63
		pastAB := uint64(q.ab-1-x) >> 63
		pastABC := uint64(q.abc-1-x) >> 63
		s = s<<1 | pastAB
		d = d<<1 | pastA ^ pastAB ^ pastABC
	}
	return s, d
}

// GenerateRMAT synthesizes a directed graph with the R-MAT/Kronecker
// recursive partition probabilities used by Graph500 (a=0.57, b=0.19,
// c=0.19), producing the heavy-tailed degree distribution of social
// networks. Vertex 0 is made reachable-rich: generated sources are
// additionally wired so BFS from 0 covers most of the graph (each vertex
// gets at least one incoming edge from a lower-numbered vertex).
//
// The generator owns its RNG: all randomness flows from the seed argument
// through a locally-constructed rand.Source, never package-global state, so
// concurrent generation on scheduler workers is safe and a given
// (Dataset, seed) pair always yields the same graph. Callers running
// several generations in one sweep should hand each a seed derived via
// runner.DeriveSeed so the streams are independent.
func GenerateRMAT(d Dataset, seed int64) *CSR {
	src := rand.NewSource(seed)
	rng := rand.New(src)
	v := d.Vertices
	// scale = ceil(log2(v))
	scale := 0
	for 1<<scale < v {
		scale++
	}

	type edge struct{ src, dst uint32 }
	edges := make([]edge, 0, d.Edges)

	// Connectivity backbone: vertex i receives an edge from a random
	// earlier vertex, so BFS from 0 reaches everything. These count
	// toward the edge budget.
	for i := 1; i < v; i++ {
		edges = append(edges, edge{uint32(rng.Intn(i)), uint32(i)})
	}

	// The recursive edges continue the same stream: rng draws from src,
	// so drawing from src directly consumes it in the order rng.Float64
	// would.
	cuts := newRMATCuts()
	for len(edges) < d.Edges {
		s, t := cuts.edge(src, scale)
		edges = append(edges, edge{uint32(s % uint64(v)), uint32(t % uint64(v))})
	}

	// Build CSR with counting sort by source.
	offsets := make([]uint64, v+1)
	for _, e := range edges {
		offsets[e.src+1]++
	}
	for i := 1; i <= v; i++ {
		offsets[i] += offsets[i-1]
	}
	targets := make([]uint64, len(edges))
	cursor := make([]uint64, v)
	for _, e := range edges {
		pos := offsets[e.src] + cursor[e.src]
		cursor[e.src]++
		targets[pos] = uint64(e.dst)
	}
	return &CSR{Offsets: offsets, Targets: targets}
}

// ReferenceBFS is a plain Go BFS used to cross-check the simulated
// kernels: it returns the number of vertices reachable from src and the
// XOR of their ids (an order-independent checksum).
func ReferenceBFS(g *CSR, src int) (visited int, checksum uint64) {
	v := g.NumVertices()
	seen := make([]bool, v)
	queue := make([]int, 0, v)
	seen[src] = true
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		visited++
		checksum ^= uint64(u)
		for i := g.Offsets[u]; i < g.Offsets[u+1]; i++ {
			t := int(g.Targets[i])
			if !seen[t] {
				seen[t] = true
				queue = append(queue, t)
			}
		}
	}
	return visited, checksum
}
