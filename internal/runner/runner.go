// Package runner turns an experiment sweep into an explicit job graph: a
// list of independent, self-contained simulation Jobs executed by a
// worker Pool. Each job builds its own simulated machine and shares no
// mutable state with the others (its inputs, seeds included, are fixed
// when the job is emitted), so any worker count produces identical
// results; the pool collects results in job order, so downstream tables
// and charts are assembled identically regardless of completion order.
// Determinism therefore no longer rests on "the engine is
// single-threaded" but on "each job is deterministic and the merge is
// ordered" — the contract every future scaling change (sharded sweeps,
// multi-machine runs) builds on.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// Job is one self-contained unit of simulation work: a workload closure
// plus the identity the scheduler needs to place its result.
type Job[T any] struct {
	// ID is the job's slot in the emitting sweep; the result of Run lands
	// at results[ID] no matter when the job completes.
	ID int
	// Name labels progress lines, e.g. "fig5a/Flick/n=64".
	Name string
	// Run executes the job. It must be self-contained: it builds its own
	// machine and shares no mutable state with other jobs.
	Run func(ctx context.Context) (T, error)
}

// Event reports one job lifecycle transition to a ProgressFunc.
type Event struct {
	// Done is false when the job starts and true when it finishes.
	Done bool
	ID   int
	Name string
	// Err is the job's error (finish events only).
	Err error
	// Elapsed is the job's wall-clock runtime (finish events only).
	Elapsed time.Duration
	// Started and Finished count jobs that have reached each state,
	// including this one; Total is the sweep size.
	Started  int
	Finished int
	Total    int
}

// ProgressFunc observes job scheduling. Calls are serialized by the pool,
// so implementations need no locking of their own.
type ProgressFunc func(Event)

// Pool executes a job list on a bounded set of workers.
type Pool struct {
	// Workers is the parallelism; values below 1 run serially.
	Workers int
	// Timeout bounds the whole run's wall-clock time (0 = unbounded).
	Timeout time.Duration
	// OnEvent observes job starts and finishes (nil = silent).
	OnEvent ProgressFunc
}

// Run executes jobs on the pool and returns their results ordered by Job.ID
// position in the input slice. The first job failure cancels the remaining
// jobs; panics inside a job are recovered into errors so one bad sweep
// point cannot take down the whole run.
func Run[T any](ctx context.Context, p Pool, jobs []Job[T]) ([]T, error) {
	if p.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.Timeout)
		defer cancel()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := p.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	results := make([]T, len(jobs))
	errs := make([]error, len(jobs))
	prog := &progress{fn: p.OnEvent, total: len(jobs)}

	feed := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range feed {
				j := jobs[i]
				prog.start(j.ID, j.Name)
				start := time.Now()
				results[i], errs[i] = runJob(ctx, j)
				prog.finish(j.ID, j.Name, errs[i], time.Since(start))
				if errs[i] != nil {
					cancel() // fail fast: stop feeding new jobs
				}
			}
		}()
	}
dispatch:
	for i := range jobs {
		select {
		case feed <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(feed)
	wg.Wait()

	// Report the most informative error deterministically: the first
	// non-cancellation failure in job order (the root cause), else the
	// first error of any kind, else — if jobs were skipped — why the
	// context ended.
	var fallback error
	for i, err := range errs {
		if err == nil {
			continue
		}
		wrapped := fmt.Errorf("runner: job %q: %w", jobs[i].Name, err)
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return nil, wrapped
		}
		if fallback == nil {
			fallback = wrapped
		}
	}
	if fallback != nil {
		return nil, fallback
	}
	if prog.finishedCount() != len(jobs) {
		if err := context.Cause(ctx); err != nil {
			return nil, fmt.Errorf("runner: run aborted: %w", err)
		}
		return nil, errors.New("runner: run aborted before all jobs completed")
	}
	return results, nil
}

// runJob invokes one job with panic-to-error recovery.
func runJob[T any](ctx context.Context, j Job[T]) (val T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job #%d panicked: %v\n%s", j.ID, r, debug.Stack())
		}
	}()
	if err := ctx.Err(); err != nil {
		return val, err
	}
	return j.Run(ctx)
}

// progress serializes lifecycle accounting and callback delivery.
type progress struct {
	mu              sync.Mutex
	fn              ProgressFunc
	total           int
	nStarted, nDone int
}

func (p *progress) start(id int, name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nStarted++
	if p.fn != nil {
		p.fn(Event{ID: id, Name: name,
			Started: p.nStarted, Finished: p.nDone, Total: p.total})
	}
}

func (p *progress) finish(id int, name string, err error, elapsed time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nDone++
	if p.fn != nil {
		p.fn(Event{Done: true, ID: id, Name: name, Err: err, Elapsed: elapsed,
			Started: p.nStarted, Finished: p.nDone, Total: p.total})
	}
}

func (p *progress) finishedCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nDone
}
