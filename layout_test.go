package flick_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"flick"
	"flick/internal/multibin"
	"flick/internal/platform"
)

// memcpyProg is host-only code that calls a per-ISA routed stdlib symbol,
// so every image links the runtime library's host half and resolves
// memcpy.host.
const memcpyProg = `
.func main isa=host
    movi a0, 16
    call malloc
    mov  a1, a0
    movi a2, 16
    call memcpy
    movi a0, 0
    halt
.endfunc
`

// imageDigest hashes everything the linker laid out: each segment's name,
// ISA, VA and bytes in image order, then the symbol table by name.
func imageDigest(im *multibin.Image) string {
	h := sha256.New()
	var w [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	for _, seg := range im.Segments {
		fmt.Fprintf(h, "%s|%s|", seg.Name, seg.ISA)
		u64(seg.VA)
		u64(uint64(len(seg.Bytes)))
		h.Write(seg.Bytes)
	}
	names := make([]string, 0, len(im.Symbols))
	for n := range im.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "%s=", n)
		u64(im.Symbols[n])
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// metricNamesDigest hashes the names every component registered, in the
// snapshot's sorted order.
func metricNamesDigest(sys *flick.System) string {
	h := sha256.New()
	snap := sys.Report().Metrics
	for _, c := range snap.Counters {
		fmt.Fprintf(h, "c:%s\n", c.Name)
	}
	for _, hs := range snap.Histograms {
		fmt.Fprintf(h, "h:%s\n", hs.Name)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestISAMixLayout pins the linked image and the registered metric names
// of the ISA mixes no golden file covers (every golden is an nxp machine).
// A change to how the runtime library is emitted or how board cores are
// built must leave both digests as they are.
func TestISAMixLayout(t *testing.T) {
	cases := []struct {
		name      string
		boards    int
		boardISAs []string
		dsp       bool
		image     string
		metrics   string
	}{
		{name: "default",
			image: "13c9f65e01d4d11f", metrics: "5bba05c9ae26f3a8"},
		{name: "cmp", boardISAs: []string{"cmp"},
			image: "7c4ce21a239453e5", metrics: "6dfa0fc0a37404c0"},
		{name: "nxp,cmp", boards: 2, boardISAs: []string{"nxp", "cmp"},
			image: "2b2558ff3c43fc45", metrics: "70738532e79b097f"},
		{name: "EnableDSP", dsp: true,
			image: "099fab760d645eb1", metrics: "3ba9d699588d041b"},
		{name: "nxp,dsp,cmp", boards: 3, boardISAs: []string{"nxp", "dsp", "cmp"},
			image: "90cf3c51299af6c9", metrics: "df44048812baf231"},
		{name: "cmp,dsp+EnableDSP", boards: 2, boardISAs: []string{"cmp", "dsp"}, dsp: true,
			image: "ea79319bf9aa961b", metrics: "42df00e32026b7cb"},
		{name: "dsp", boardISAs: []string{"dsp"},
			image: "b0062a07b2f45ee7", metrics: "ef81a5fa58e489dd"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := platform.DefaultParams()
			p.Boards = c.boards
			p.BoardISAs = c.boardISAs
			p.EnableDSP = c.dsp
			sys, err := flick.Build(flick.Config{
				Params:  &p,
				Sources: map[string]string{"prog.fasm": memcpyProg},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := imageDigest(sys.Image); got != c.image {
				t.Errorf("image digest = %s, want %s", got, c.image)
			}
			if got := metricNamesDigest(sys); got != c.metrics {
				t.Errorf("metric names digest = %s, want %s", got, c.metrics)
			}
			if ret, err := sys.RunProgram("main"); err != nil || ret != 0 {
				t.Errorf("RunProgram = %d, %v; want 0, nil", ret, err)
			}
		})
	}
}
