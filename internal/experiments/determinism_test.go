package experiments

import (
	"bytes"
	"sync/atomic"
	"testing"

	"flick/internal/runner"
)

// goldenOpts is the smallest option set that still exercises every
// experiment's job graph.
func goldenOpts(jobs int) Options {
	o := tiny()
	o.Jobs = jobs
	return o
}

// renderAll renders every registered experiment in order, as
// `flicksim all` does.
func renderAll(t *testing.T, o Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range Registry {
		if err := r.Run(o, &buf); err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestAllDeterministicAcrossWorkerCounts is the scheduler's core
// guarantee: the rendered artifacts are byte-identical whether the job
// graph runs serially or eight machines wide, because each job is
// deterministic and the merge is ordered.
func TestAllDeterministicAcrossWorkerCounts(t *testing.T) {
	serial := renderAll(t, goldenOpts(1))
	parallel := renderAll(t, goldenOpts(8))
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("jobs=1 and jobs=8 rendered different artifacts:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s",
			serial, parallel)
	}
	if len(serial) == 0 {
		t.Fatal("All rendered nothing")
	}
}

// TestAllDeterministicAcrossRuns re-runs the same parallel configuration:
// a fixed seed must give a fixed artifact even with eight workers racing.
func TestAllDeterministicAcrossRuns(t *testing.T) {
	first := renderAll(t, goldenOpts(8))
	second := renderAll(t, goldenOpts(8))
	if !bytes.Equal(first, second) {
		t.Fatal("two jobs=8 runs with the same seed rendered different artifacts")
	}
}

// TestProgressReportsEveryJob checks the observability contract: a run
// reports exactly one start and one finish per emitted job.
func TestProgressReportsEveryJob(t *testing.T) {
	var starts, finishes atomic.Int32
	o := tiny()
	o.Jobs = 4
	o.Progress = func(e runner.Event) {
		if e.Done {
			finishes.Add(1)
		} else {
			starts.Add(1)
		}
	}
	if _, err := KVStore(o); err != nil {
		t.Fatal(err)
	}
	// KVStore emits one job per batch size (4 batches).
	if starts.Load() != 4 || finishes.Load() != 4 {
		t.Errorf("starts=%d finishes=%d, want 4/4", starts.Load(), finishes.Load())
	}
}
