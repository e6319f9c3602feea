package experiments

import (
	"fmt"
	"runtime"
	"time"
)

// Report is one artifact's outcome from RunAll.
type Report struct {
	// Runner identifies the artifact.
	Runner Runner
	// Output is the artifact's printable report (nil when Err is set).
	Output fmt.Stringer
	// Err is the run's failure, if any.
	Err error
	// Elapsed is the artifact's wall-clock time.
	Elapsed time.Duration
	// AllocBytes is the heap allocated during the run (process-wide delta,
	// so it is approximate when other artifacts run concurrently).
	AllocBytes uint64
}

// RunAll executes the runners with at most jobs of them in flight at once
// (jobs == 1 is strictly serial; jobs < 1 means GOMAXPROCS) and returns
// their reports in the given (paper) order. Every runner derives all
// randomness from its own seed, so reports are byte-identical for every
// jobs value. Runners that support
// internal parallelism (Runner.RunJobs) receive the same worker budget;
// total concurrency can therefore transiently exceed jobs, which only
// overlaps CPU-bound goroutines and never changes output.
//
// If emit is non-nil it is called once per runner, in paper order, as soon
// as the report and all of its predecessors are available — so a CLI can
// stream ordered output while later artifacts are still running.
func RunAll(runners []Runner, seed uint64, jobs int, emit func(Report)) []Report {
	if jobs < 1 {
		jobs = runtime.GOMAXPROCS(0)
	}
	reports := make([]Report, len(runners))
	done := make([]chan struct{}, len(runners))
	for i := range done {
		done[i] = make(chan struct{})
	}
	sem := make(chan struct{}, jobs)
	go func() {
		for i := range runners {
			sem <- struct{}{}
			go func(i int) {
				defer func() { <-sem }()
				defer close(done[i])
				reports[i] = runOne(runners[i], seed, jobs)
			}(i)
		}
	}()
	for i := range runners {
		<-done[i]
		if emit != nil {
			emit(reports[i])
		}
	}
	return reports
}

// runOne executes a single runner, preferring its parallel entry point.
func runOne(r Runner, seed uint64, jobs int) Report {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	//lint:allow detlint harness wall timing feeds Report.Elapsed only, never an artifact byte
	start := time.Now()
	var out fmt.Stringer
	var err error
	if r.RunJobs != nil {
		out, err = r.RunJobs(seed, jobs)
	} else {
		out, err = r.Run(seed)
	}
	//lint:allow detlint harness wall timing feeds Report.Elapsed only, never an artifact byte
	elapsed := time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return Report{
		Runner:     r,
		Output:     out,
		Err:        err,
		Elapsed:    elapsed,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
	}
}
