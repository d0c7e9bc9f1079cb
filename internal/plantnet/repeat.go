package plantnet

import (
	"runtime"
	"sync"
	"sync/atomic"

	"e2clab/internal/rngutil"
	"e2clab/internal/stats"
)

// Repeated runs the same experiment `repeats` times with derived seeds and
// aggregates the user response time across all samples of all runs — the
// paper's protocol: 7 experiments of 23 minutes, metric collected every
// 10 s, reported as mean ± std over the 966 measurements.
type Repeated struct {
	Runs []*Metrics
	// UserResponseTime pools every post-warmup sample of every run.
	UserResponseTime stats.Summary
	// Throughput averages the per-run throughputs.
	Throughput float64
}

// RunRepeated executes opts.Pools under opts repeats times. All run seeds
// are derived up front from opts.Seed, so the runs are independent and
// execute concurrently on a worker pool bounded by opts.MaxParallel
// (default GOMAXPROCS). Results are aggregated in run-index order after
// every run completes, so the output — including the floating-point
// accumulation order of the pooled statistics — is identical to a
// sequential execution for a fixed seed. On error, the first failure in
// run-index order is returned.
//
// Each worker carries one warm Runner across its runs, borrowed from the
// package's idle list (see borrowRunner), so the per-run setup —
// simulation arena, replicas, pools, reservoir, request nodes and their
// bound step and hedge continuations — is paid once per Runner, not once
// per repeat or per call. A Runner's reset is bit-complete, so the pooled execution is
// byte-identical to running every repeat on a fresh engine (enforced by
// the golden, repeat-determinism and idle-reuse tests).
func RunRepeated(opts RunOptions, repeats int) (*Repeated, error) {
	r := borrowRunner()
	rep, err := r.RunRepeated(opts, repeats)
	if err == nil {
		returnRunner(r)
	}
	return rep, err
}

// RunRepeated is the Runner-bound form of the package-level RunRepeated:
// the sequential path and the first parallel worker reuse the receiver's
// pooled state; the other workers borrow warm Runners from the idle list
// and return them (a Runner is single-threaded, and each borrowed one
// belongs to one worker until it is returned).
//
//simlint:ordered seeds are derived up front and each worker writes runs[i]/errs[i] for the indices it claims; aggregation below walks index order (determinism pinned by repeat tests)
func (r *Runner) RunRepeated(opts RunOptions, repeats int) (*Repeated, error) {
	if repeats < 1 {
		repeats = 1
	}
	seeder := rngutil.NewSeeder(opts.Seed + 7)
	seeds := make([]int64, repeats)
	for i := range seeds {
		seeds[i] = seeder.Next()
	}
	runs := make([]*Metrics, repeats)
	errs := make([]error, repeats)
	workers := opts.MaxParallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > repeats {
		workers = repeats
	}
	if workers <= 1 {
		for i := 0; i < repeats; i++ {
			o := opts
			o.Seed = seeds[i]
			runs[i], errs[i] = r.Run(o)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rn := r
				if w > 0 {
					rn = borrowRunner()
				}
				for {
					i := int(next.Add(1)) - 1
					if i >= repeats {
						break
					}
					o := opts
					o.Seed = seeds[i]
					if runs[i], errs[i] = rn.Run(o); errs[i] != nil {
						return // drop a Runner that failed mid-run
					}
				}
				if w > 0 {
					returnRunner(rn)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := &Repeated{Runs: runs}
	var pooled stats.Welford
	var thr float64
	for _, m := range runs {
		for _, s := range m.Samples {
			if !isNaN(s.RespTime) {
				pooled.Add(s.RespTime)
			}
		}
		thr += m.Throughput
	}
	out.UserResponseTime = pooled.Snapshot()
	out.Throughput = thr / float64(repeats)
	return out, nil
}

func isNaN(v float64) bool { return v != v }

// idle holds the warm Runners that the package-level Run and RunRepeated,
// and the parallel workers of (*Runner).RunRepeated, borrow instead of
// building an engine per call. A borrowed Runner belongs to one goroutine
// until it is returned. At most GOMAXPROCS Runners stay alive between
// calls; a Runner returned to a full list is left to the GC. It is not a
// sync.Pool because that is emptied at every GC cycle, and an optimization
// campaign runs one every few evaluations.
var idle struct {
	mu      sync.Mutex
	runners []*Runner
}

// borrowRunner takes a warm Runner off the idle list, or builds an empty one.
func borrowRunner() *Runner {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	n := len(idle.runners)
	if n == 0 {
		return NewRunner()
	}
	r := idle.runners[n-1]
	idle.runners[n-1] = nil
	idle.runners = idle.runners[:n-1]
	return r
}

// returnRunner puts r back on the idle list unless the list is full.
func returnRunner(r *Runner) {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	if len(idle.runners) < runtime.GOMAXPROCS(0) {
		idle.runners = append(idle.runners, r)
	}
}
