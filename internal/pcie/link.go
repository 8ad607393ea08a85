// Package pcie models the system interconnect of the prototype platform: a
// PCIe 3.0 x8 link between the host and the NxP board, the BAR windows that
// expose the board's memory and registers to the host, and the descriptor
// DMA engine with MSI completion interrupts that Flick uses to move
// migration descriptors in a single burst.
//
// The timing model is deliberately simple — a per-transaction overhead, a
// one-way propagation delay, and a serialization cost per byte — but it is
// calibrated against the paper's measurements: an 8-byte host read of NxP
// memory costs ~825 ns round trip, and a 64-byte descriptor burst plus MSI
// lands in the low microseconds.
package pcie

import (
	"fmt"

	"flick/internal/sim"
)

// LinkParams describes the interconnect's timing characteristics.
type LinkParams struct {
	// Name identifies the link configuration, e.g. "PCIe 3.0 x8".
	Name string
	// Propagation is the one-way latency of a TLP through the fabric
	// (root complex, switch, endpoint decode).
	Propagation sim.Duration
	// PerByte is the serialization cost per payload byte.
	PerByte sim.Duration
	// RequestOverhead is the fixed cost of issuing one transaction
	// (header processing, DLLP ack bookkeeping).
	RequestOverhead sim.Duration
}

// PCIe3x8 returns the calibrated parameters for the paper's PCIe 3.0 x8
// link. An 8-byte non-posted read costs 2*Propagation + overhead + payload
// ≈ 735 ns on the wire; the remaining ~90 ns of the paper's 825 ns
// round-trip figure is the DRAM access on the far side, charged by the
// memory model.
func PCIe3x8() LinkParams {
	return LinkParams{
		Name:            "PCIe 3.0 x8",
		Propagation:     350 * sim.Nanosecond,
		PerByte:         sim.Duration(0.127 * float64(sim.Nanosecond)), // ≈ 7.9 GB/s
		RequestOverhead: 34 * sim.Nanosecond,
	}
}

// ReadLatency returns the round-trip cost of a non-posted read of n bytes:
// the request travels to the target, the completion carries the data back.
func (l LinkParams) ReadLatency(n int) sim.Duration {
	return l.RequestOverhead + 2*l.Propagation + sim.Duration(n)*l.PerByte
}

// WriteLatency returns the cost of a posted write of n bytes as observed by
// the issuer. Posted writes complete at the requester once accepted.
func (l LinkParams) WriteLatency(n int) sim.Duration {
	return l.RequestOverhead + sim.Duration(n)*l.PerByte
}

// BurstLatency returns the cost for a DMA engine to move n bytes in one
// burst: a single request overhead, one propagation, and the serialized
// payload. This is the fast path the paper's descriptor transfer uses.
func (l LinkParams) BurstLatency(n int) sim.Duration {
	return l.RequestOverhead + l.Propagation + sim.Duration(n)*l.PerByte
}

func (l LinkParams) String() string {
	return fmt.Sprintf("%s (prop %v, %.3gns/B)", l.Name, l.Propagation, l.PerByte.Nanoseconds())
}
