package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/rc"
)

// table1PassRefSec is one pass over the ten circuits at reference host
// speed; table1 always runs at least two passes so that the tail
// percentile has ten requests beyond it.
const table1PassRefSec = 22.0

// setupRepeats is how many times set-up is repeated for setup_s.
const setupRepeats = 7

// runTable1 is the paper's Table 1 the way cmd/table1 runs it by
// default: the ten ISCAS85-class circuits in paper order, one at a time,
// each a cold solve at the derived bounds with core.DefaultOptions and
// the solver at all cores, in-process through bench.RunInstance. The
// seed does not change this list: Table 1 is one fixed set of inputs.
func runTable1(cfg *config) (*result, error) {
	res := newResult()
	width := runtime.GOMAXPROCS(0)
	clk := newClock(width, 3)
	m := &measurement{clk: clk}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	var insts []*bench.Instance
	var buildMs float64
	for i := 0; i < setupRepeats; i++ {
		clk.calibrate()
		start := time.Now()
		insts, buildMs = nil, 0
		for _, spec := range bench.ISCAS85 {
			id := tr.begin("bench.BuildInstance", 0, 0)
			t0 := time.Now()
			inst, err := bench.BuildInstance(spec, bench.PipelineOptions{})
			buildMs += msSince(t0)
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("build %s: %w", spec.Name, err)
			}
			insts = append(insts, inst)
		}
		m.setupRaw = append(m.setupRaw, time.Since(start).Seconds())
		m.setupAt = append(m.setupAt, start)
	}

	passes := passesFor(cfg.seconds, table1PassRefSec, 2)
	if cfg.trace {
		// The first pass pays each circuit's first-use costs, so the traced
		// pass is compared with a later untraced one.
		passes = max(passes, 3)
	}
	first := map[string][32]byte{}
	var probes []*solveProbe
	var reqPass []int                    // pass of each entry in m.latMs
	passLat := make([][]float64, passes) // per-circuit latency by pass
	circuitMs := map[string][]float64{}
	reqID := int64(0)
	clk.begin(0)
	for p := 0; p < passes; p++ {
		traced := cfg.trace && p%2 == 1
		for _, inst := range insts {
			clk.calibrate()
			reqID++
			m.attempted++
			clk.enter()
			t0 := time.Now()
			var (
				row   *bench.Table1Row
				probe *solveProbe
				err   error
			)
			if traced {
				row, probe, err = solveTraced(inst, tr, reqID)
			} else {
				row, err = bench.RunInstance(inst, bench.RunOptions{})
			}
			lat := msSince(t0)
			clk.leave()
			if err != nil {
				m.failed++
				res.problem("%s pass %d: %v", inst.Spec.Name, p, err)
				continue
			}
			m.latMs = append(m.latMs, lat)
			m.latAt = append(m.latAt, t0)
			circuitMs[inst.Spec.Name] = append(circuitMs[inst.Spec.Name], lat)
			reqPass = append(reqPass, p)
			passLat[p] = append(passLat[p], lat)
			m.solvesRan++
			m.addSolve(initMetrics{area: inst.Init.Area, noise: inst.Init.NoiseLinFF},
				&core.Result{Area: row.FinAreaUM2, NoiseLinFF: row.FinNoisePF * 1000, Converged: row.Converged})
			d := rowDigest(row, inst.Eval.X)
			if want, ok := first[inst.Spec.Name]; !ok {
				first[inst.Spec.Name] = d
			} else if d != want {
				m.failed++
				res.problem("%s pass %d differs from its first solve", inst.Spec.Name, p)
			}
			if probe != nil {
				probes = append(probes, probe)
			}
		}
	}
	clk.calibrate()
	m.measured = clk.finish()
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	m.rssMB = rss
	m.fill(res)
	res.info = append(res.info, fmt.Sprintf("%d passes over %d circuits, solver width %d", passes, len(insts), width))
	for _, inst := range insts {
		res.info = append(res.info, fmt.Sprintf("%-6s raw ms per pass %.1f", inst.Spec.Name, circuitMs[inst.Spec.Name]))
	}

	if cfg.trace {
		k := clk.kRun()
		res.metrics["bench.build_ms"] = normTime(buildMs, k)
		fillSolveProbes(res, probes, k)
		res.metrics["rc.recompute_us"] = normTime(recomputeProbe(insts, tr), k)
		// All cores is timed on the last untraced (even) pass, past the
		// first pass's first-use costs.
		last := (passes - 1) &^ 1
		speedup, err := widthProbe(insts, passLat[last], first, tr)
		if err != nil {
			res.problem("width probe: %v", err)
		}
		res.metrics["core.width_speedup"] = speedup
		passMs := make([]float64, passes)
		for i, lat := range m.latMs {
			passMs[reqPass[i]] += lat * clk.factorAt(m.latAt[i])
		}
		res.metrics["trace.overhead_pct"] = passOverheadPct(passMs)
		if err := tr.write(tracePath(cfg)); err != nil {
			return nil, err
		}
		summarizeTrace(res, tr.snapshot())
		res.info = append(res.info, "trace written to "+tracePath(cfg))
	}
	return res, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// rowDigest hashes everything a Table-1 solve returns except its wall
// time, plus the final sizes the solve leaves on the evaluator.
func rowDigest(row *bench.Table1Row, x []float64) [32]byte {
	r := *row
	r.TimeSec, r.SecPerIter = 0, 0
	return digest(struct {
		Row *bench.Table1Row
		X   []float64
	}{&r, x})
}

// solveProbe is what a traced solve observes from outside the solver.
type solveProbe struct {
	ms         float64
	iterMs     []float64 // one per OGWS iteration, from OnIteration times
	components int
	res        *core.Result
	eval       rc.EvalStats
	trips      int64
}

// solveTraced is bench.RunInstance spelled out with core.NewSolver and
// Solver.Run, so the solve can be timed, its iterations stamped through
// OnIteration and its counters read.
func solveTraced(inst *bench.Instance, tr *tracer, req int64) (*bench.Table1Row, *solveProbe, error) {
	b := bench.DeriveBounds(inst)
	sopt := core.DefaultOptions(b.A0, b.NoiseBound, b.PowerBound)
	sp := tr.begin("core.Solve", 0, req)
	defer tr.end(sp)
	pr := &solveProbe{components: inst.Spec.Components()}
	last := time.Now()
	sopt.OnIteration = func(core.IterProgress) {
		now := time.Now()
		pr.iterMs = append(pr.iterMs, float64(now.Sub(last))/1e6)
		last = now
		tr.event("core.OnIteration", sp, req)
	}
	id := tr.begin("core.NewSolver", sp, req)
	sol, err := core.NewSolver(inst.Eval, sopt)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	defer sol.Close()
	before := inst.Eval.Stats()
	id = tr.begin("core.Run", sp, req)
	t0 := time.Now()
	last = t0
	res, err := sol.Run()
	pr.ms = msSince(t0)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	pr.res, pr.eval, pr.trips = res, inst.Eval.Stats().Sub(before), sol.HysteresisTrips()
	p := inst.Tech
	row := &bench.Table1Row{
		Name:  inst.Spec.Name,
		Gates: inst.Spec.Gates, Wires: inst.Spec.Wires, Tot: inst.Spec.Components(),
		InitNoisePF: inst.Init.NoiseLinFF / 1000, FinNoisePF: res.NoiseLinFF / 1000,
		InitDelayPs: inst.Init.DelayPs, FinDelayPs: res.DelayPs,
		InitPowerMW: p.Power(inst.Init.PowerCapFF), FinPowerMW: p.Power(res.PowerCapFF),
		InitAreaUM2: inst.Init.Area, FinAreaUM2: res.Area,
		Iterations: res.Iterations,
		MemKB:      float64(res.MemoryBytes) / 1024,
		MemMB:      float64(res.MemoryBytes) / (1024 * 1024),
		Converged:  res.Converged,
		Gap:        res.Gap,
	}
	return row, pr, nil
}

// fillSolveProbes turns traced solves into the core and rc metrics.
func fillSolveProbes(res *result, probes []*solveProbe, k float64) {
	var solveMs, perComp []float64
	iters, sweeps, trips := 0, 0, int64(0)
	var ev rc.EvalStats
	total := 0.0
	for _, p := range probes {
		solveMs = append(solveMs, p.ms)
		total += p.ms
		iters += p.res.Iterations
		sweeps += p.res.LRSSweepsTotal
		trips += p.trips
		ev = addEval(ev, p.eval)
		if len(p.iterMs) > 0 && p.components > 0 {
			perComp = append(perComp, 1000*sum(p.iterMs)/float64(len(p.iterMs))/float64(p.components))
		}
	}
	n := float64(len(probes))
	res.metrics["core.solve_ms.p50"] = normTime(percentile(solveMs, 50), k)
	res.metrics["core.iterations_per_solve"] = ratio(float64(iters), n)
	res.metrics["core.lrs_sweeps_per_solve"] = ratio(float64(sweeps), n)
	res.metrics["core.sweep_us"] = normTime(ratio(1000*total, float64(sweeps)), k)
	res.metrics["core.iter_us_per_component"] = normTime(median(perComp), k)
	res.metrics["core.hyst_trips_per_solve"] = ratio(float64(trips), n)
	res.metrics["rc.node_visits_per_sweep"] = ratio(float64(ev.NodeVisits()), float64(sweeps))
	fillEvalShare(res, ev)
}

func addEval(a, b rc.EvalStats) rc.EvalStats {
	a.FullRecomputes += b.FullRecomputes
	a.IncRecomputes += b.IncRecomputes
	a.FullUpstreams += b.FullUpstreams
	a.IncUpstreams += b.IncUpstreams
	a.DegradedRecomputes += b.DegradedRecomputes
	a.DegradedUpstreams += b.DegradedUpstreams
	a.CutoverRecomputes += b.CutoverRecomputes
	a.CutoverUpstreams += b.CutoverUpstreams
	a.ElectricalNodes += b.ElectricalNodes
	a.CouplingNodes += b.CouplingNodes
	a.LoadsNodes += b.LoadsNodes
	a.ArrivalNodes += b.ArrivalNodes
	a.UpstreamNodes += b.UpstreamNodes
	return a
}

// recomputeProbe times one full Evaluator.Recompute per instance at its
// current (solved) sizes — the median of five — and returns the sum in
// µs.
func recomputeProbe(insts []*bench.Instance, tr *tracer) float64 {
	total := 0.0
	for _, inst := range insts {
		var us []float64
		for i := 0; i < 5; i++ {
			id := tr.begin("rc.Recompute", 0, 0)
			t0 := time.Now()
			inst.Eval.Recompute()
			us = append(us, float64(time.Since(t0))/1e3)
			tr.end(id)
		}
		total += median(us)
	}
	return total
}

// widthProbe re-solves every circuit with the solver at width 1 and
// returns Σt₁ / Σt_N against the first pass at all cores. The rows must
// equal the all-cores rows bit for bit (the solver's width contract).
func widthProbe(insts []*bench.Instance, widthNMs []float64, first map[string][32]byte, tr *tracer) (float64, error) {
	t1 := 0.0
	for _, inst := range insts {
		id := tr.begin("core.width1", 0, 0)
		t0 := time.Now()
		row, err := bench.RunInstance(inst, bench.RunOptions{Workers: 1})
		t1 += msSince(t0)
		tr.end(id)
		if err != nil {
			return 0, err
		}
		if rowDigest(row, inst.Eval.X) != first[inst.Spec.Name] {
			return 0, fmt.Errorf("%s at width 1 differs from all cores", inst.Spec.Name)
		}
	}
	return ratio(t1, sum(widthNMs)), nil
}

// passOverheadPct compares the summed normalized request time of traced
// (odd) passes with that of untraced (even) ones after the first, as
// medians over passes.
func passOverheadPct(passMs []float64) float64 {
	var plain, traced []float64
	for p, t := range passMs {
		if p == 0 {
			continue
		}
		if p%2 == 1 {
			traced = append(traced, t)
		} else {
			plain = append(plain, t)
		}
	}
	return 100 * (ratio(median(traced), median(plain)) - 1)
}
