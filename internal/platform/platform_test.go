package platform

import (
	"reflect"
	"strings"
	"testing"

	"flick/internal/isa"
	"flick/internal/mem"
	"flick/internal/sim"
)

func TestMachineAssembly(t *testing.T) {
	m, err := New(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// BAR enumeration: the DDR window must be size-aligned above the
	// allocator base, and local/host views must alias the same storage.
	if m.DDRBar.HostBase%m.NxPDDR.Size() != 0 {
		t.Errorf("DDR BAR %#x not naturally aligned", m.DDRBar.HostBase)
	}
	if err := m.HostView.WriteU64(m.DDRBar.HostBase+0x40, 0xFEED); err != nil {
		t.Fatal(err)
	}
	v, err := m.NxPView.ReadU64(LocalDDRBase + 0x40)
	if err != nil || v != 0xFEED {
		t.Errorf("BAR aliasing broken: %#x, %v", v, err)
	}
	// BRAM likewise.
	if err := m.NxPView.WriteU64(LocalBRAMBase+0x10, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	v, err = m.HostView.ReadU64(m.BRAMBar.HostBase + 0x10)
	if err != nil || v != 0xBEEF {
		t.Errorf("BRAM aliasing broken: %#x, %v", v, err)
	}
	if m.String() == "" {
		t.Error("empty machine description")
	}
}

func TestHostAccessCostCalibration(t *testing.T) {
	m, err := New(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Host → board DRAM read: the paper's 825 ns figure (±3%).
	got := m.hostAccessCost(m.DDRBar.HostBase, 8, false)
	want := 825 * sim.Nanosecond
	if diff := got - want; diff < -25*sim.Nanosecond || diff > 25*sim.Nanosecond {
		t.Errorf("host→NxP DDR read = %v, want ≈825ns", got)
	}
	// Posted writes are much cheaper than reads.
	if w := m.hostAccessCost(m.DDRBar.HostBase, 8, true); w >= got/2 {
		t.Errorf("posted write %v not much cheaper than read %v", w, got)
	}
	// Local DRAM is cheap.
	if l := m.hostAccessCost(0x1000, 8, false); l >= 20*sim.Nanosecond {
		t.Errorf("host local access = %v", l)
	}
}

func TestNxPAccessCostCalibration(t *testing.T) {
	m, err := New(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	access := m.boardAccessCost(m.Boards[0])
	// NxP → local DDR: the paper's 267 ns.
	if got := access(LocalDDRBase+0x100, 8, false); got != 267*sim.Nanosecond {
		t.Errorf("NxP local DDR = %v, want 267ns", got)
	}
	// NxP → BRAM: a couple of cycles.
	if got := access(LocalBRAMBase, 8, false); got != 10*sim.Nanosecond {
		t.Errorf("NxP BRAM = %v", got)
	}
	// NxP → host DRAM: a PCIe round trip.
	if got := access(0x1000, 8, false); got < 700*sim.Nanosecond {
		t.Errorf("NxP→host read = %v, should cross the link", got)
	}
}

func TestNxPFetchCostFavorsICache(t *testing.T) {
	m, err := New(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Instruction lines live in host DRAM: fills cross the link.
	if got := m.boardFetchCost(m.Boards[0])(0x2000); got < 700*sim.Nanosecond {
		t.Errorf("NxP I-fill from host DRAM = %v", got)
	}
}

func TestNxPTLBRemapProgrammed(t *testing.T) {
	m, err := New(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// The driver must have programmed remap windows covering the BARs:
	// a translation yielding a BAR address must come out board-local.
	r := m.NxP.DMMU().TLB.RemapReg()
	if !r.Active() {
		t.Fatal("NxP TLB remap not programmed")
	}
	if r.Apply(m.DDRBar.HostBase+123) != LocalDDRBase+123 {
		t.Errorf("remap of DDR BAR base = %#x", r.Apply(m.DDRBar.HostBase+123))
	}
}

func TestExposeNxPDevice(t *testing.T) {
	m, err := New(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	dev := mem.NewRAM("scratch", 4096)
	bar, err := m.ExposeNxPDevice(dev, 0x7800_0000)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.HostView.WriteU64(bar.HostBase, 42); err != nil {
		t.Fatal(err)
	}
	v, err := m.NxPView.ReadU64(0x7800_0000)
	if err != nil || v != 42 {
		t.Errorf("device aliasing = %v, %v", v, err)
	}
}

func TestCustomParams(t *testing.T) {
	p := DefaultParams()
	p.NxPDDR = 64 << 20
	p.NxPWindowPage = 2 << 20
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if m.NxPDDR.Size() != 64<<20 {
		t.Error("DDR size override ignored")
	}
}

func TestDefaultParamsMatchTableI(t *testing.T) {
	p := DefaultParams()
	if p.HostCycle != 417*sim.Picosecond {
		t.Errorf("host clock = %v, want 2.4GHz-ish", p.HostCycle)
	}
	if p.NxPCycle != 5*sim.Nanosecond {
		t.Errorf("NxP clock = %v, want 200MHz", p.NxPCycle)
	}
	if p.NxPDDR != 4<<30 {
		t.Errorf("board DRAM = %d, want 4GB", p.NxPDDR)
	}
	if p.NxPITLB != 16 || p.NxPDTLB != 16 {
		t.Error("NxP TLBs must have 16 entries (§IV-A)")
	}
}

func TestScratchpadHoleBypassesWalk(t *testing.T) {
	m, err := New(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Program a hole over an *unmapped* VA range: accesses must still
	// translate (no page tables involved) and land in board DRAM.
	const holeVA = 0x7000_0000_0000
	m.ProgramScratchpadHole(holeVA, 1<<20, LocalDDRBase+0x10_0000)
	r, ok := m.NxP.DMMU().TLB.Lookup(holeVA + 0x40)
	if !ok {
		t.Fatal("hole lookup missed")
	}
	if r.Phys != LocalDDRBase+0x10_0040 {
		t.Errorf("hole phys = %#x", r.Phys)
	}
	// The host side has no such hole: the same VA is simply unmapped.
	if _, ok := m.Host.DMMU().TLB.Lookup(holeVA); ok {
		t.Error("hole leaked into the host TLB")
	}
	walksBefore, _ := m.NxP.DMMU().Stats()
	if _, err := m.NxP.DMMU().Translate(nil, holeVA+0x80); err != nil {
		t.Fatal(err)
	}
	walksAfter, _ := m.NxP.DMMU().Stats()
	if walksAfter != walksBefore {
		t.Error("hole access performed a page walk")
	}
}

func TestParseBoardISAs(t *testing.T) {
	for _, tc := range []struct {
		in     string
		boards int
		want   []string
		ok     bool
	}{
		{"", 1, nil, true},
		{"nxp", 1, []string{"nxp"}, true},
		{"cmp", 1, []string{"cmp"}, true},
		{"nxp,cmp,dsp", 3, []string{"nxp", "cmp", "dsp"}, true},
		{",cmp", 2, []string{"", "cmp"}, true}, // empty entry = default
		{"nxp,nxp", 1, nil, false},             // more entries than boards
		{"host", 1, nil, false},                // host is not a board family
		{"riscv", 1, nil, false},
	} {
		got, err := ParseBoardISAs(tc.in, tc.boards)
		if tc.ok != (err == nil) {
			t.Errorf("ParseBoardISAs(%q, %d) err = %v, want ok=%v", tc.in, tc.boards, err, tc.ok)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseBoardISAs(%q, %d) = %v, want %v", tc.in, tc.boards, got, tc.want)
		}
	}
}

func TestHasNxPBoard(t *testing.T) {
	for _, tc := range []struct {
		names  []string
		boards int
		want   bool
	}{
		{nil, 1, true},
		{[]string{"cmp"}, 1, false},
		{[]string{"cmp", "dsp"}, 2, false},
		{[]string{"cmp"}, 2, true},     // board 1 defaults to nxp
		{[]string{"cmp", ""}, 2, true}, // so does an empty entry
		{[]string{"dsp", "nxp"}, 2, true},
	} {
		if got := HasNxPBoard(tc.names, tc.boards); got != tc.want {
			t.Errorf("HasNxPBoard(%q, %d) = %v, want %v", tc.names, tc.boards, got, tc.want)
		}
	}
}

// TestTaggedExecutionRule pins the generalized tagged-mode rule: NX
// polarity suffices for exactly two core families; a third (the DSP, or
// any extra board family) switches the machine to PTE ISA tags. The
// original EnableDSP behavior falls out as a special case.
func TestTaggedExecutionRule(t *testing.T) {
	build := func(mut func(*Params)) *Machine {
		p := DefaultParams()
		mut(&p)
		m, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if m := build(func(p *Params) {}); m.TaggedISAs() {
		t.Error("host+nxp machine should use NX polarity, not tags")
	}
	if m := build(func(p *Params) { p.EnableDSP = true }); !m.TaggedISAs() {
		t.Error("EnableDSP machine should be tagged")
	}
	// Swapping the single board's family keeps two ISAs total: still NX.
	if m := build(func(p *Params) { p.BoardISAs = []string{"cmp"} }); m.TaggedISAs() {
		t.Error("host+cmp machine should use NX polarity, not tags")
	}
	// A second board family is a third ISA: tags required.
	m := build(func(p *Params) {
		p.Boards = 2
		p.BoardISAs = []string{"nxp", "cmp"}
	})
	if !m.TaggedISAs() {
		t.Error("host+nxp+cmp machine should be tagged")
	}
	if m.BoardISA(0) != isa.ISANxP || m.BoardISA(1) != isa.ISACmp {
		t.Errorf("board ISAs = %v, %v", m.BoardISA(0), m.BoardISA(1))
	}
	// Duplicate families across boards do not count twice.
	if m := build(func(p *Params) {
		p.Boards = 3
		p.BoardISAs = []string{"cmp", "cmp", "cmp"}
	}); m.TaggedISAs() {
		t.Error("host+cmp×3 machine should use NX polarity, not tags")
	}
}

func TestBadBoardISAsRejected(t *testing.T) {
	p := DefaultParams()
	p.BoardISAs = []string{"riscv"}
	if _, err := New(p); err == nil {
		t.Error("unknown board family accepted")
	}
	p.BoardISAs = []string{"nxp", "nxp"}
	if _, err := New(p); err == nil {
		t.Error("more board families than boards accepted")
	}
}

// TestBoardCoreNamesUnique builds the machine whose board 0 is dsp and
// which also enables the DSP core: two dsp cores on one board. Each core
// must get its own name, and so its own cpu.*, mmu.* and tlb.* metrics.
func TestBoardCoreNamesUnique(t *testing.T) {
	p := DefaultParams()
	p.BoardISAs = []string{"dsp"}
	p.EnableDSP = true
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.BoardCores) != 2 {
		t.Fatalf("%d board cores, want 2", len(m.BoardCores))
	}
	if a, b := m.BoardCores[0].Core.Name(), m.BoardCores[1].Core.Name(); a == b {
		t.Errorf("both dsp cores are named %q", a)
	}
	snap := m.Env.Metrics().Snapshot()
	count := func(prefix, suffix string) int {
		n := 0
		for _, c := range snap.Counters {
			if strings.HasPrefix(c.Name, prefix) && strings.HasSuffix(c.Name, suffix) {
				n++
			}
		}
		return n
	}
	// One host core and two board cores, each with an I- and a D-side MMU
	// and TLB.
	for _, c := range []struct {
		prefix, suffix string
		want           int
	}{{"cpu.", ".instret", 3}, {"mmu.", ".translates", 6}, {"tlb.", ".hits", 6}} {
		if got := count(c.prefix, c.suffix); got != c.want {
			t.Errorf("%d %s*%s metrics, want %d", got, c.prefix, c.suffix, c.want)
		}
	}
}
