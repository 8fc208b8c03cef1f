package core

import (
	"repro/internal/fanout"
	"repro/internal/rc"
)

// BatchJob is one independent sizing problem for SolveBatch: an evaluator
// (each job must own its evaluator — solves mutate sizes in place) and the
// solver options to run it under.
type BatchJob struct {
	Ev      *rc.Evaluator
	Options Options
}

// BatchResult is the outcome of one BatchJob; exactly one field is set.
type BatchResult struct {
	Result *Result
	Err    error
}

// SolveBatch runs Algorithm OGWS on every job concurrently, using at most
// workers goroutines (0 selects runtime.GOMAXPROCS(0)), and returns the
// results in job order. This is the driver for Table-1-style sweeps: many
// circuits or many specs of one circuit solved side by side.
//
// Parallelism composes across the two levels. A job whose Options.Workers
// is zero is solved with Workers == 1, so by default the batch level owns
// every core — for sweeps of similar-sized problems, one solver per core
// beats splitting each solver across cores, since the batch has no
// sequential dependencies at all. Set Options.Workers explicitly on a job
// to nest both levels (useful when one circuit dwarfs the rest).
//
// Each job is independent and produces the same bit-identical Result it
// would produce on its own, regardless of workers.
func SolveBatch(jobs []BatchJob, workers int) []BatchResult {
	results := make([]BatchResult, len(jobs))
	fanout.Each(len(jobs), workers, func(i int) {
		results[i] = solveOne(jobs[i])
	})
	return results
}

func solveOne(job BatchJob) BatchResult {
	opt := job.Options
	if opt.Workers == 0 {
		opt.Workers = 1
	}
	sol, err := NewSolver(job.Ev, opt)
	if err != nil {
		return BatchResult{Err: err}
	}
	defer sol.Close()
	res, err := sol.Run()
	if err != nil {
		return BatchResult{Err: err}
	}
	return BatchResult{Result: res}
}
