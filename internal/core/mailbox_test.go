package core

import (
	"errors"
	"fmt"
	"testing"

	"flick/internal/isa"
	"flick/internal/platform"
	"flick/internal/sim"
)

// testMailbox builds board 0's mailbox on a fresh machine with the given
// fault spec; fail receives abandoned descriptors.
func testMailbox(t *testing.T, faults string, fail failFn) (*platform.Machine, *Mailbox) {
	t.Helper()
	params := platform.DefaultParams()
	params.Faults = faults
	m, err := platform.New(params)
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
	mb, err := newMailbox(m, m.Boards[0], staging, arrival, func(int) {}, nil, fail)
	if err != nil {
		t.Fatal(err)
	}
	return m, mb
}

// TestReusedWaiterStartsEmpty: RegisterWaiter hands out the waiter an
// earlier WaitH2N released. Two pids interleave on one board core so that
// B registers on A's released waiter, which still records A's delivered
// slot; B must block until its own return arrives, and every wait must end
// exactly when, and with the slot in which, its own return was delivered.
func TestReusedWaiterStartsEmpty(t *testing.T) {
	m, mb := testMailbox(t, "", nil)
	mb.SetPIO(true) // deliveries land at the doorbell, with no DMA in between
	const a, b = 1, 2
	var sent, got []string // "pid, slot, time" per return delivered and per wait ended
	send := func(p *sim.Proc, pid uint32) {
		pa, slot, seq := mb.StageH2NSlot()
		d := Descriptor{Kind: DescReturn, PID: pid, ReplyISA: uint32(isa.ISANxP), Seq: seq}
		buf := d.Encode()
		if err := m.HostView.Write(pa, buf[:]); err != nil {
			t.Error(err)
		}
		sent = append(sent, fmt.Sprintf("pid %d slot %d at %v", pid, slot, p.Now()))
		mb.kickH2N(slot)
	}
	wait := func(p *sim.Proc, pid uint32) {
		slot := mb.WaitH2N(p, pid, isa.ISANxP)
		got = append(got, fmt.Sprintf("pid %d slot %d at %v", pid, slot, p.Now()))
	}
	var released *mboxWaiter
	m.Env.Spawn("frame-a", func(p *sim.Proc) {
		mb.RegisterWaiter(a, isa.ISANxP)
		released = mb.waiters[waiterKey{a, isa.ISANxP}]
		wait(p, a) // A's first return, at 1µs
		p.Sleep(2 * sim.Microsecond)
		mb.RegisterWaiter(a, isa.ISANxP) // at 3µs, while B holds the reused waiter
		wait(p, a)                       // A's second return, at 5µs
	})
	m.Env.Spawn("frame-b", func(p *sim.Proc) {
		p.Sleep(2 * sim.Microsecond)
		mb.RegisterWaiter(b, isa.ISANxP)
		if mb.waiters[waiterKey{b, isa.ISANxP}] != released {
			t.Error("B's waiter is not the one A's WaitH2N released")
		}
		wait(p, b) // B's return, at 4µs
	})
	m.Env.Spawn("host", func(p *sim.Proc) {
		for _, step := range []struct {
			at  sim.Duration
			pid uint32
		}{{1, a}, {4, b}, {5, a}} {
			p.Sleep(step.at*sim.Microsecond - p.Now().Duration())
			send(p, step.pid)
		}
	})
	m.Env.Run()
	if fmt.Sprint(got) != fmt.Sprint(sent) {
		t.Errorf("waits ended as\n  %v\nwant\n  %v", got, sent)
	}
}

// TestDMARetryBudgetPerSlot: under dma.fail=1 every burst fails. The
// attempt count lives in the slot, so each transfer, a second one on the
// same slot included, takes exactly dmaMaxAttempts bursts before the slot
// is released and the owner gets the typed TransportError.
func TestDMARetryBudgetPerSlot(t *testing.T) {
	var errs []error
	var pids []uint32
	m, mb := testMailbox(t, "dma.fail=1", func(pid uint32, err error) {
		pids = append(pids, pid)
		errs = append(errs, err)
	})
	const slot = 3
	m.Env.Spawn("sender", func(p *sim.Proc) {
		for round, dir := range []string{"h2n", "h2n", "n2h", "n2h"} {
			pid := uint32(10 + round)
			d := Descriptor{Kind: DescCall, PID: pid}
			buf := d.Encode()
			if dir == "h2n" {
				if err := m.HostView.Write(mb.hostStaging+slot*DescSize, buf[:]); err != nil {
					t.Error(err)
				}
				mb.busyH2N[slot] = true
				mb.kickH2N(slot)
			} else {
				if err := m.NxPView.Write(mb.bramLocal+n2hStagingOff+slot*DescSize, buf[:]); err != nil {
					t.Error(err)
				}
				mb.n2hBusy[slot] = true
				mb.kickN2H(slot)
			}
			p.Sleep(10 * sim.Millisecond) // far past the ~0.7ms retry budget
			if len(errs) != round+1 || pids[round] != pid {
				t.Fatalf("round %d (%s): abandoned pids %v, want pid %d last", round, dir, pids, pid)
			}
			if mb.busyH2N[slot] || mb.n2hBusy[slot] {
				t.Errorf("round %d (%s): slot %d still owned after abandonment", round, dir, slot)
			}
			var te *TransportError
			if !errors.As(errs[round], &te) || te.Dir != dir || te.Board != 0 || te.Slot != slot {
				t.Fatalf("round %d: error %#v, want a %s TransportError for board 0 slot %d", round, errs[round], dir, slot)
			}
			if want := fmt.Sprintf("core: %s-desc DMA for slot %d failed after %d attempts", dir, slot, dmaMaxAttempts); te.Error() != want {
				t.Errorf("round %d: %q, want %q", round, te.Error(), want)
			}
			if got, want := m.Boards[0].DMA.Stats().Failed, (round+1)*dmaMaxAttempts; got != want {
				t.Errorf("after round %d: %d failed bursts, want %d", round, got, want)
			}
		}
	})
	m.Env.Run()
	if len(errs) != 4 {
		t.Fatalf("%d transfers abandoned, want 4", len(errs))
	}
}

// TestN2HStagingWaitsForOwnedSlots: an arrival slot stays owned until the
// host takes its descriptor. With every slot's return delivered and none
// taken, the next sender waits instead of overwriting one; taking a
// descriptor frees exactly that slot, and the waiting return lands there
// while every other pending descriptor stays intact.
func TestN2HStagingWaitsForOwnedSlots(t *testing.T) {
	m, mb := testMailbox(t, "", nil)
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
