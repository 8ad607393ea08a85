package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"flick/internal/runner"
)

// csrDigest is the SHA-256 of a graph's Offsets then Targets, each word
// little-endian.
func csrDigest(g *CSR) string {
	h := sha256.New()
	var w [8]byte
	for _, s := range [][]uint64{g.Offsets, g.Targets} {
		for _, v := range s {
			binary.LittleEndian.PutUint64(w[:], v)
			h.Write(w[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateRMATGolden pins every bit of the generator's output: the
// three Table IV datasets at two scales, under fixed seeds and the seed
// Table IV itself derives for each dataset at the default base seed. A
// faster generator must draw the same graphs, or every Table IV artifact
// moves.
func TestGenerateRMATGolden(t *testing.T) {
	// Captured from the definition: one rng.Float64() per level, its
	// quadrant picked as switchQuadrant picks it.
	want := map[string]string{
		"Epinions1/64 seed 1":           "d9d0533afe91fdac13cdb6d4ba13ed3246f55f3c9fa924e24d000b1e214dcb5d",
		"Epinions1/64 seed 7":           "75243141a93da405cb12bd8e2d5acd58bac366e3671a94b3ff6f1c0f19dbbd0b",
		"Epinions1/64 seed table4":      "afa4ce8549926087ec50ecfe49bd91c7bd8b01a1aeb10a91fc379df66187bd6f",
		"Epinions1/4096 seed 1":         "14c186547b3fd8fda77ff131b9447cb01f5e9c74f8f09985b1b41b329cbb0e65",
		"Epinions1/4096 seed 7":         "38373bc8fba7f350a0c2f762de7369afc65cb49b06b2d8ba14599287118020a0",
		"Epinions1/4096 seed table4":    "04d5ba2454630e7357a99fbd51b8cfe8c457ba754ce5ef81f853336958bc31b6",
		"Pokec/64 seed 1":               "e8b38796e9744695d0ddf902b97f5ece0fcfc28ebc556687f005f1c8323635ca",
		"Pokec/64 seed 7":               "8aea3de6f80980d441091c82a022903998d21c3907c382edd3f7663f1053f09e",
		"Pokec/64 seed table4":          "d82d1de9a4a0515060903252d71164eb8d786cd366649902b36db9b9cca5eba8",
		"Pokec/4096 seed 1":             "fb995a95f02e1857365ff481454ad5c9044cf3575419f952b324a384849ed648",
		"Pokec/4096 seed 7":             "a1b85e57a7478b53352788b78534fc33ba6b8b11a2e6207a2240e9378f8a4063",
		"Pokec/4096 seed table4":        "82398a066447bda3d31cb0f65f51ca9c07e7cb0a24f3c2b382117e3c316da03b",
		"LiveJournal1/64 seed 1":        "a96d95dcffb3bad4d3db8e2953a5ddc3d599fc6150d2e12971a6781b6b6ada30",
		"LiveJournal1/64 seed 7":        "6201f7086e3f14b4713d9fef58356afa48ea5e4e312860a390f58b4e471c3b20",
		"LiveJournal1/64 seed table4":   "bd6fea5eda0553bf592beb2cf9f667c2b8841d4e31336755f58c0edbaf392309",
		"LiveJournal1/4096 seed 1":      "589464707d0a5f9af18f16d1922bca51ff8391392681be59ae1082c48bd2a4a9",
		"LiveJournal1/4096 seed 7":      "c4d99ea1c3a2e5673ed46442225d2e5ab4188d891686582b002319d0123e0688",
		"LiveJournal1/4096 seed table4": "75a84a1ee886684d4b89a2ddebfb34d8d29c923107ba132b7f421e19a7ea6046",
	}
	for di, d := range Table4Datasets {
		seeds := map[string]int64{"1": 1, "7": 7, "table4": runner.DeriveSeed(1, uint64(di)) + 1}
		for _, scale := range []int{64, 4096} {
			for _, label := range []string{"1", "7", "table4"} {
				key := fmt.Sprintf("%s seed %s", d.Scale(scale).Name, label)
				if got := csrDigest(GenerateRMAT(d.Scale(scale), seeds[label])); got != want[key] {
					t.Errorf("%s: digest %s, want %s", key, got, want[key])
				}
			}
		}
	}
}

// stubSource is a rand.Source that yields vals in order, then repeats the
// last; n counts the draws taken.
type stubSource struct {
	vals []int64
	n    int
}

func (s *stubSource) Int63() int64 {
	v := s.vals[min(s.n, len(s.vals)-1)]
	s.n++
	return v
}

func (s *stubSource) Seed(int64) {}

// switchQuadrant is one R-MAT level as a four-way choice on r =
// rng.Float64(): the definition the cuts must reproduce.
func switchQuadrant(r float64) (s, d uint64) {
	switch {
	case r < rmatA:
		return 0, 0
	case r < rmatA+rmatB:
		return 0, 1
	case r < rmatA+rmatB+rmatC:
		return 1, 0
	default:
		return 1, 1
	}
}

// TestInt63Threshold checks each cut is the exact boundary of its
// probability under Float64's scaling, that a draw on either side of every
// cut lands in the quadrant the switch on Float64 picks, and that a draw
// rounding to a Float64 of 1 is redrawn, as Float64 redraws it.
func TestInt63Threshold(t *testing.T) {
	cuts := newRMATCuts()
	for _, c := range []struct {
		p   float64
		cut int64
	}{{rmatA, cuts.a}, {rmatA + rmatB, cuts.ab}, {rmatA + rmatB + rmatC, cuts.abc}, {1, cuts.one}} {
		if lo, hi := float64(c.cut-1)/(1<<63), float64(c.cut)/(1<<63); !(lo < c.p && c.p <= hi) {
			t.Errorf("cut %d for p=%v: want %v < p <= %v", c.cut, c.p, lo, hi)
		}
	}
	const top = 1<<63 - 1 // rounds to a Float64 of 1
	for _, y := range []int64{0, cuts.a - 1, cuts.a, cuts.ab - 1, cuts.ab, cuts.abc - 1, cuts.abc, cuts.one - 1} {
		f := &stubSource{vals: []int64{top, y}}
		r := rand.New(f).Float64()
		if f.n != 2 || r != float64(y)/(1<<63) {
			t.Fatalf("stub: Float64 took %d draws for %v, want 2 for %v", f.n, r, float64(y)/(1<<63))
		}
		g := &stubSource{vals: []int64{top, y}}
		s, d := cuts.edge(g, 1)
		ws, wd := switchQuadrant(r)
		if g.n != 2 || s != ws || d != wd {
			t.Errorf("draw %d: edge took %d draws for bits (%d, %d), want 2 for (%d, %d)", y, g.n, s, d, ws, wd)
		}
	}
}

// BenchmarkGenerateRMAT draws LiveJournal1/64, the largest graph Table IV
// generates at Quick scale (76k vertices, 1.08M edges).
func BenchmarkGenerateRMAT(b *testing.B) {
	d := LiveJournal1.Scale(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GenerateRMAT(d, 1)
	}
}
