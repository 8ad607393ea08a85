package main

// attribution splits the host time of the simulation calls among layers:
// each layer's share is its count times its probe's unit cost. The shares
// use raw counts, which can overlap (a guest load is an instruction and a
// translation), so unexplained can go below zero; it is the remainder the
// ladder does not yet explain.
type attribution struct{ cpu, sim, mem, unexplained float64 }

// attribute computes the shares, in percent of runS seconds. It reports
// false when a probe it needs did not produce a number.
func attribute(runS float64, c counts, probeVals map[string]float64) (attribution, bool) {
	block, okCPU := probeVals["cpu.block_ns"]
	handoff, okSim := probeVals["sim.handoff_ns"]
	read, okMem := probeVals["cpu.read_u64_virt_ns"]
	if !okCPU || !okSim || !okMem || runS <= 0 {
		return attribution{}, false
	}
	pct := func(n uint64, ns float64) float64 { return float64(n) * ns / (runS * 1e9) * 100 }
	a := attribution{cpu: pct(c.Instret, block), sim: pct(c.Queued, handoff), mem: pct(c.DataTranslates, read)}
	a.unexplained = 100 - a.cpu - a.sim - a.mem
	return a, true
}
