package pcie

import (
	"testing"

	"flick/internal/faultinj"
	"flick/internal/sim"
)

func TestDMASubmitPanicsWhenFull(t *testing.T) {
	env := sim.NewEnv()
	host, nxp, _, _ := newTestSpaces(t)
	eng := NewEngine(env, PCIe3x8(), 0)
	defer func() {
		if recover() == nil {
			t.Error("submit past capacity did not panic")
		}
	}()
	for i := 0; i <= DefaultQueueCap; i++ {
		eng.Submit(Request{SrcSpace: host, Src: 0x100, DstSpace: nxp, Dst: 0x8000_0100, Size: 8, Tag: "x"})
	}
}

func TestDMAInjectedFailureSkipsData(t *testing.T) {
	env := sim.NewEnv()
	host, nxp, _, _ := newTestSpaces(t)
	eng := NewEngine(env, PCIe3x8(), 0)
	spec, _ := faultinj.Parse("dma.fail=1")
	eng.SetInjector(faultinj.New(env, 1, spec))

	if err := host.WriteU64(0x100, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	okSeen, failSeen := 0, 0
	env.Spawn("driver", func(p *sim.Proc) {
		eng.Submit(Request{
			SrcSpace: host, Src: 0x100, DstSpace: nxp, Dst: 0x8000_0200, Size: 64, Tag: "d",
			OnDone: func(at sim.Time, ok bool) {
				if ok {
					okSeen++
				} else {
					failSeen++
				}
			},
		})
	})
	env.Run()
	if okSeen != 0 || failSeen != 1 {
		t.Fatalf("ok=%d fail=%d, want 0/1", okSeen, failSeen)
	}
	// An aborted burst delivers nothing.
	if v, err := nxp.ReadU64(0x8000_0200); err != nil || v != 0 {
		t.Errorf("destination = %#x, %v; want untouched zero", v, err)
	}
	st := eng.Stats()
	if st.Transfers != 0 || st.Failed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDMAInjectedDupDeliversTwice(t *testing.T) {
	env := sim.NewEnv()
	host, nxp, _, _ := newTestSpaces(t)
	eng := NewEngine(env, PCIe3x8(), 0)
	spec, _ := faultinj.Parse("dma.dup=1")
	eng.SetInjector(faultinj.New(env, 1, spec))

	done := 0
	env.Spawn("driver", func(p *sim.Proc) {
		eng.Submit(Request{
			SrcSpace: host, Src: 0x100, DstSpace: nxp, Dst: 0x8000_0200, Size: 64, Tag: "d",
			OnDone: func(at sim.Time, ok bool) {
				if !ok {
					t.Error("dup delivery reported failure")
				}
				done++
			},
		})
	})
	env.Run()
	if done != 2 {
		t.Fatalf("completions = %d, want 2 (original + replay)", done)
	}
}

func TestDMAInjectedDelayStretchesTransfer(t *testing.T) {
	run := func(spec string) sim.Time {
		env := sim.NewEnv()
		host, nxp, _, _ := newTestSpaces(t)
		eng := NewEngine(env, PCIe3x8(), 0)
		if spec != "" {
			s, err := faultinj.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			eng.SetInjector(faultinj.New(env, 1, s))
		}
		var at sim.Time
		env.Spawn("driver", func(p *sim.Proc) {
			eng.Submit(Request{
				SrcSpace: host, Src: 0x100, DstSpace: nxp, Dst: 0x8000_0200, Size: 64, Tag: "d",
				OnDone: func(t sim.Time, ok bool) { at = t },
			})
		})
		env.Run()
		return at
	}
	plain := run("")
	delayed := run("dma.delay=1:10us")
	if want := plain.Add(10 * sim.Microsecond); delayed != want {
		t.Errorf("delayed completion at %v, want %v (plain %v)", delayed, want, plain)
	}
}
