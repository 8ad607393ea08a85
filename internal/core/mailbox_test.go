package core

import (
	"testing"

	"flick/internal/platform"
	"flick/internal/sim"
)

// TestN2HStagingWaitsForOwnedSlots: an arrival slot stays owned until the
// host takes its descriptor. With every slot's return delivered and none
// taken, the next sender waits instead of overwriting one; taking a
// descriptor frees exactly that slot, and the waiting return lands there
// while every other pending descriptor stays intact.
func TestN2HStagingWaitsForOwnedSlots(t *testing.T) {
	m, err := platform.New(platform.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	staging, err := m.Alloc.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	arrival, err := m.Alloc.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	mb, err := newMailbox(m, m.Boards[0], staging, arrival, func(int) {}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	const taken = 5 // the pid whose descriptor the host takes
	var slots []int
	m.Env.Spawn("board", func(p *sim.Proc) {
		for pid := uint32(1); pid <= mailboxSlots+1; pid++ {
			local, slot, seq := mb.StageN2HSlot(p)
			d := Descriptor{Kind: DescReturn, PID: pid, RetVal: uint64(pid), Seq: seq}
			buf := d.Encode()
			if err := m.NxPView.Write(local, buf[:]); err != nil {
				t.Error(err)
				return
			}
			mb.kickN2H(slot)
			slots = append(slots, slot)
		}
	})
	m.Env.Spawn("host", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond) // long after every staged return has landed
		if len(slots) != mailboxSlots {
			t.Errorf("%d returns staged with %d slots, none taken", len(slots), mailboxSlots)
		}
		if _, ok := mb.TakeN2H(taken); !ok {
			t.Errorf("no pending descriptor for pid %d", taken)
		}
	})
	m.Env.Run()
	if len(slots) != mailboxSlots+1 || slots[mailboxSlots] != slots[taken-1] {
		t.Fatalf("staged slots %v: the last return must take the freed slot %d", slots, taken-1)
	}
	for pid := uint32(1); pid <= mailboxSlots+1; pid++ {
		if pid == taken {
			continue
		}
		pa, ok := mb.TakeN2H(pid)
		if !ok {
			t.Fatalf("no pending descriptor for pid %d", pid)
		}
		var buf [DescSize]byte
		if err := m.HostView.Read(pa, buf[:]); err != nil {
			t.Fatal(err)
		}
		if d, err := DecodeDescriptor(buf[:]); err != nil || d.PID != pid || d.RetVal != uint64(pid) {
			t.Errorf("pid %d reads descriptor %+v (err %v)", pid, d, err)
		}
	}
}
