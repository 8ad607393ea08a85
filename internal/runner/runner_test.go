package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// squareJobs emits n jobs whose results reveal both their identity and
// their input order.
func squareJobs(n int, delay func(i int) time.Duration) []Job[int] {
	jobs := make([]Job[int], n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job[int]{
			ID:   i,
			Name: fmt.Sprintf("square/%d", i),
			Run: func(ctx context.Context) (int, error) {
				if delay != nil {
					time.Sleep(delay(i))
				}
				return i * i, nil
			},
		}
	}
	return jobs
}

func TestRunOrdersResults(t *testing.T) {
	// Early jobs sleep longer, so under parallelism they finish *last*;
	// the collected results must still come back in emission order.
	jobs := squareJobs(8, func(i int) time.Duration {
		return time.Duration(8-i) * time.Millisecond
	})
	for _, workers := range []int{1, 3, 8, 100} {
		got, err := Run(context.Background(), Pool{Workers: workers}, jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunRecoversPanics(t *testing.T) {
	jobs := squareJobs(4, nil)
	jobs[2].Run = func(ctx context.Context) (int, error) { panic("boom") }
	_, err := Run(context.Background(), Pool{Workers: 2}, jobs)
	if err == nil {
		t.Fatal("panicking job did not surface an error")
	}
	if !strings.Contains(err.Error(), "panicked: boom") || !strings.Contains(err.Error(), "square/2") {
		t.Errorf("panic error lacks context: %v", err)
	}
}

func TestRunFailFastCancelsRemaining(t *testing.T) {
	var started atomic.Int32
	boom := errors.New("boom")
	jobs := make([]Job[int], 64)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{ID: i, Name: fmt.Sprintf("j%d", i), Run: func(ctx context.Context) (int, error) {
			started.Add(1)
			if i == 0 {
				return 0, boom
			}
			return i, nil
		}}
	}
	_, err := Run(context.Background(), Pool{Workers: 1}, jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the root-cause job error", err)
	}
	if n := started.Load(); n == 64 {
		t.Error("failure did not stop the serial feed")
	}
}

func TestRunRootCauseWinsOverCancellation(t *testing.T) {
	// When one job fails and others die of the resulting cancellation,
	// the reported error must be the root cause, not context.Canceled.
	boom := errors.New("root cause")
	jobs := []Job[int]{
		{ID: 0, Name: "canceled-victim", Run: func(ctx context.Context) (int, error) {
			<-ctx.Done()
			return 0, ctx.Err()
		}},
		{ID: 1, Name: "failer", Run: func(ctx context.Context) (int, error) {
			return 0, boom
		}},
	}
	_, err := Run(context.Background(), Pool{Workers: 2}, jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want root cause", err)
	}
}

func TestRunTimeout(t *testing.T) {
	jobs := []Job[int]{{ID: 0, Name: "sleeper", Run: func(ctx context.Context) (int, error) {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(5 * time.Second):
			return 1, nil
		}
	}}}
	start := time.Now()
	_, err := Run(context.Background(), Pool{Workers: 1, Timeout: 20 * time.Millisecond}, jobs)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("timeout did not interrupt the job")
	}
}

func TestRunExternalCancelSkipsUnstartedJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := squareJobs(4, nil)
	_, err := Run(ctx, Pool{Workers: 2}, jobs)
	if err == nil {
		t.Fatal("canceled run returned success with incomplete results")
	}
}

func TestRunProgressEvents(t *testing.T) {
	var events []Event
	pool := Pool{Workers: 4, OnEvent: func(e Event) { events = append(events, e) }}
	if _, err := Run(context.Background(), pool, squareJobs(6, nil)); err != nil {
		t.Fatal(err)
	}
	var starts, dones int
	for _, e := range events {
		if e.Total != 6 {
			t.Fatalf("event total = %d", e.Total)
		}
		if e.Done {
			dones++
			if e.Finished < 1 || e.Finished > 6 {
				t.Errorf("finished count out of range: %+v", e)
			}
		} else {
			starts++
		}
	}
	if starts != 6 || dones != 6 {
		t.Errorf("starts=%d dones=%d, want 6/6", starts, dones)
	}
	last := events[len(events)-1]
	if !last.Done || last.Finished != 6 {
		t.Errorf("final event = %+v", last)
	}
}

func TestRunEmptyJobList(t *testing.T) {
	got, err := Run[int](context.Background(), Pool{Workers: 4}, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty run: %v %v", got, err)
	}
}

func TestDeriveSeed(t *testing.T) {
	// Stable: the derivation is a pure function.
	if DeriveSeed(42, 7) != DeriveSeed(42, 7) {
		t.Error("derivation not deterministic")
	}
	// Distinct across indices and bases (no collisions in a modest window).
	seen := map[int64]string{}
	for _, base := range []int64{0, 1, 42, -9} {
		for i := uint64(0); i < 1000; i++ {
			s := DeriveSeed(base, i)
			key := fmt.Sprintf("base=%d i=%d", base, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s both derive %d", prev, key, s)
			}
			seen[s] = key
		}
	}
}
