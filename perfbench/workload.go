package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/rc"
)

// circuitDef is one circuit an HTTP workload registers, with the
// in-process build the benchmark checks replies against.
type circuitDef struct {
	label    string
	register map[string]any
	build    func() (*bench.Instance, bench.Bounds, error)
}

// circuit is a registered circuit: its server key and bounds plus the
// benchmark's own copy of the instance.
type circuit struct {
	register map[string]any
	key      string
	bounds   bench.Bounds
	inst     *bench.Instance
	initX    []float64
	init     initMetrics
	comps    int
}

const (
	// clients is the closed-loop client count of the HTTP workloads: one
	// per core of the 2-vCPU reference host.
	clients = 2
	// recomputeSample is how many distinct requests are recomputed
	// in-process after the timed phase.
	recomputeSample = 3
)

// httpWorkload describes a workload that drives the real ogwsd.
type httpWorkload struct {
	passRefSec float64 // one pass at reference host speed
	minPasses  int
	calibEvery time.Duration // 0: calibrate between passes, which then do not overlap
	circuits   []circuitDef
	// start launches the program's processes and returns them (server
	// first) with the server's address.
	start func(cfg *config, dir string) ([]*proc, string, error)
	// ready blocks until the started processes are fully up.
	ready    func(a *api) error
	template func(pass int, cs map[string]*circuit) []unit
	// probe adds the workload's own per-layer metrics in traced runs.
	probe func(cfg *config, run *httpRun, res *result) error
}

// httpRun is everything one run of an HTTP workload observed.
type httpRun struct {
	circuits map[string]*circuit
	outs     []*outcome
	stats    statsReply
	k        float64
	tr       *tracer
	api      *api
}

// statsReply is the part of GET /stats the benchmark reads.
type statsReply struct {
	Solves          int64        `json:"solves"`
	Eval            rc.EvalStats `json:"eval"`
	NodeVisits      int64        `json:"node_visits"`
	HysteresisTrips int64        `json:"hysteresis_trips"`
	Farm            *farm.Stats  `json:"farm"`
}

func runHTTP(cfg *config, w *httpWorkload) (*result, error) {
	res := newResult()
	run := &httpRun{circuits: map[string]*circuit{}}
	if cfg.trace {
		run.tr = newTracer()
	}
	tr := run.tr

	// The benchmark's own instances: the in-process reference and the
	// base of the improvement metrics.
	buildMs := 0.0
	for _, d := range w.circuits {
		id := tr.begin("bench.Build "+d.label, 0, 0)
		t0 := time.Now()
		inst, b, err := d.build()
		buildMs += msSince(t0)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", d.label, err)
		}
		c := &circuit{register: d.register, bounds: b, inst: inst, initX: append([]float64(nil), inst.Eval.X...), comps: inst.Eval.Graph().NumNodes()}
		if inst.Netlist != nil {
			c.init, c.comps = initMetrics{inst.Init.Area, inst.Init.NoiseLinFF}, inst.Spec.Components()
		} else {
			c.init = initMetrics{inst.Eval.Area(), inst.Eval.NoiseLinear()}
		}
		run.circuits[d.label] = c
	}

	reps := 1
	if w.calibEvery == 0 {
		reps = 3 // few pass boundaries: sample the host more at each
	}
	clk := newClock(runtime.GOMAXPROCS(0), reps)
	m := &measurement{clk: clk}
	var (
		procs []*proc
		dirs  []string
	)
	defer func() {
		for i := len(procs) - 1; i >= 0; i-- {
			procs[i].stop()
		}
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	phase := time.Now()
	logPhase := func(name string) {
		fmt.Fprintf(os.Stderr, "perfbench: %s %s took %.2fs\n", cfg.workload, name, time.Since(phase).Seconds())
		phase = time.Now()
	}
	logPhase("in-process builds")
	for i := 0; i < setupRepeats; i++ {
		for j := len(procs) - 1; j >= 0; j-- {
			procs[j].stop()
		}
		procs = nil
		if run.api != nil {
			run.api.close()
		}
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d-setup%d", cfg.workload, os.Getpid(), i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		dirs = append(dirs, dir)
		clk.calibrate()
		t0 := time.Now()
		ps, addr, err := w.start(cfg, dir)
		procs = ps
		if err != nil {
			return nil, err
		}
		run.api = newAPI(addr, clients)
		if err := w.ready(run.api); err != nil {
			return nil, err
		}
		for _, d := range w.circuits {
			var reg struct {
				Key    string       `json:"key"`
				Bounds bench.Bounds `json:"bounds"`
			}
			if err := run.api.do("POST", "/circuits", d.register, &reg); err != nil {
				return nil, fmt.Errorf("register %s: %w", d.label, err)
			}
			c := run.circuits[d.label]
			if reg.Bounds != c.bounds {
				res.problem("%s: server bounds %+v differ from the library's %+v", d.label, reg.Bounds, c.bounds)
			}
			c.key = reg.Key
		}
		m.setupRaw = append(m.setupRaw, time.Since(t0).Seconds())
		m.setupAt = append(m.setupAt, t0)
	}

	logPhase("set-ups")
	passes := passesFor(cfg.seconds, w.passRefSec, w.minPasses)
	order, units := schedule(cfg.seed, passes, func(p int) []unit { return w.template(p, run.circuits) })
	traced := func(p int) bool { return cfg.trace && p%2 == 1 }
	clk.begin(w.calibEvery)
	var reqSeq int64
	if w.calibEvery > 0 {
		run.outs = drive(clk, run.api, clients, order, units, tr, traced, &reqSeq)
	} else {
		// Pass by pass, calibrating at each pass boundary.
		for lo := 0; lo < len(units); {
			hi := lo
			for hi < len(units) && order[hi] == order[lo] {
				hi++
			}
			run.outs = append(run.outs, drive(clk, run.api, clients, order[lo:hi], units[lo:hi], tr, traced, &reqSeq)...)
			clk.calibrate()
			lo = hi
		}
	}
	clk.calibrate()
	m.measured = clk.finish()
	run.k = clk.kRun()

	if err := run.api.do("GET", "/stats", nil, &run.stats); err != nil {
		return nil, err
	}
	for _, p := range procs {
		rss, err := peakRSSMB(p.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		m.rssMB += rss
	}

	logPhase("timed phase")
	decodeAll(run.outs)
	verify(res, run.outs, cfg.seed, recomputeSample)
	logPhase("verification")
	for _, o := range run.outs {
		m.attempted++
		if o.status != 0 {
			m.latMs = append(m.latMs, o.latMs)
			m.latAt = append(m.latAt, o.at)
		}
		if o.err != nil {
			m.failed++
			continue
		}
		m.solvesRan += o.ran
		for _, r := range o.results {
			m.addSolve(run.circuits[o.req.circuit].init, r)
		}
	}
	m.fill(res)
	res.info = append(res.info, fmt.Sprintf("%d passes of %d requests, %d clients", passes, len(run.outs)/passes, clients))
	res.info = append(res.info, latencyTable(run.outs)...)

	if cfg.trace {
		res.metrics["bench.build_ms"] = normTime(buildMs, run.k)
		fillHTTPLayers(run, res)
		if w.probe != nil {
			if err := w.probe(cfg, run, res); err != nil {
				return nil, err
			}
		}
		logPhase("probes")
		if err := tr.write(tracePath(cfg)); err != nil {
			return nil, err
		}
		summarizeTrace(res, tr.snapshot())
		res.info = append(res.info, "trace written to "+tracePath(cfg))
	}
	return res, nil
}

// fillHTTPLayers derives the per-layer metrics every HTTP workload has
// from the replies and /stats.
func fillHTTPLayers(run *httpRun, res *result) {
	k := run.k
	var (
		solveMs, overheadMs, dedupMs, firstMs, kb, perComp []float64
		solveSecTotal                                      float64
		solveSweeps, iters, sweepsAll, ran                 int
		solves, dedups, shed                               int
		cells                                              int
		sweepSec, mcMs                                     float64
		mcSamples                                          int
		plain, traced                                      []float64
	)
	for _, o := range run.outs {
		if o.status == 503 {
			shed++
		}
		if o.status != 0 {
			kb = append(kb, float64(o.bytes)/1024)
			if o.pass > 0 {
				if o.traced {
					traced = append(traced, o.latMs)
				} else {
					plain = append(plain, o.latMs)
				}
			}
		}
		if o.err != nil {
			continue
		}
		if o.ran > 0 {
			for _, r := range o.results {
				iters += r.Iterations
				sweepsAll += r.LRSSweepsTotal
			}
			ran += len(o.results)
		}
		switch o.req.kind {
		case "solve":
			solves++
			if o.dedup {
				dedups++
				dedupMs = append(dedupMs, o.latMs)
				break
			}
			r := o.results[0]
			solveMs = append(solveMs, 1000*o.solveSec)
			overheadMs = append(overheadMs, o.latMs-1000*o.solveSec)
			solveSecTotal += o.solveSec
			solveSweeps += r.LRSSweepsTotal
			if r.Iterations > 0 {
				perComp = append(perComp, 1e6*o.solveSec/float64(r.Iterations)/float64(run.circuits[o.req.circuit].comps))
			}
		case "sweep", "stream":
			cells += o.cells
			sweepSec += o.latMs / 1000
			if o.firstMs > 0 {
				firstMs = append(firstMs, o.firstMs)
			}
		case "montecarlo":
			if !o.dedup {
				mcMs += o.latMs
				mcSamples += o.ran
			}
		}
	}
	st := run.stats
	res.metrics["core.solve_ms.p50"] = normTime(percentile(solveMs, 50), k)
	res.metrics["core.iterations_per_solve"] = ratio(float64(iters), float64(ran))
	res.metrics["core.lrs_sweeps_per_solve"] = ratio(float64(sweepsAll), float64(ran))
	res.metrics["core.sweep_us"] = normTime(ratio(1e6*solveSecTotal, float64(solveSweeps)), k)
	res.metrics["core.iter_us_per_component"] = normTime(median(perComp), k)
	res.metrics["core.hyst_trips_per_solve"] = ratio(float64(st.HysteresisTrips), float64(st.Solves))
	res.metrics["rc.node_visits_per_sweep"] = ratio(float64(st.NodeVisits), float64(solveSweeps))
	fillEvalShare(res, st.Eval)
	res.metrics["sweep.first_cell_ms.p50"] = normTime(percentile(firstMs, 50), k)
	res.metrics["sweep.cells_per_s"] = normRate(ratio(float64(cells), sweepSec), k)
	res.metrics["variation.sample_ms"] = normTime(ratio(mcMs, float64(mcSamples)), k)
	res.metrics["service.overhead_ms.p50"] = normTime(percentile(overheadMs, 50), k)
	res.metrics["service.dedup_ms.p50"] = normTime(percentile(dedupMs, 50), k)
	res.metrics["service.dedup_share"] = ratio(float64(dedups), float64(solves))
	res.metrics["service.response_kb.p50"] = percentile(kb, 50)
	res.metrics["service.shed_share"] = ratio(float64(shed), float64(len(run.outs)))
	res.metrics["trace.overhead_pct"] = 100 * (ratio(mean(traced), mean(plain)) - 1)
	res.notes["trace.overhead_pct"] = "mean latency, traced vs untraced passes after the first"
	res.metrics["rc.recompute_us"] = normTime(recomputeAtSolved(run), k)
}

func fillEvalShare(res *result, ev rc.EvalStats) {
	cone := float64(ev.IncRecomputes + ev.IncUpstreams)
	res.metrics["rc.cone_share"] = ratio(cone, cone+float64(ev.DegradedRecomputes+ev.DegradedUpstreams))
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// recomputeAtSolved times one full Recompute per circuit on the
// benchmark's own instance, at the sizes of the circuit's first returned
// solve (median of five), and returns the sum in µs.
func recomputeAtSolved(run *httpRun) float64 {
	seen := map[string]*core.Result{}
	for _, o := range run.outs {
		if o.err == nil && len(o.results) > 0 && seen[o.req.circuit] == nil {
			seen[o.req.circuit] = o.results[0]
		}
	}
	labels := make([]string, 0, len(seen))
	for l := range seen {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	total := 0.0
	for _, l := range labels {
		ev := run.circuits[l].inst.Eval
		if err := ev.SetSizes(seen[l].X); err != nil {
			continue
		}
		var us []float64
		for i := 0; i < 5; i++ {
			id := run.tr.begin("rc.Recompute", 0, 0)
			t0 := time.Now()
			ev.Recompute()
			us = append(us, float64(time.Since(t0))/1e3)
			run.tr.end(id)
		}
		total += median(us)
		if err := ev.SetSizes(run.circuits[l].initX); err != nil {
			continue
		}
		ev.Recompute()
	}
	return total
}

// latencyTable summarizes raw latency per request group.
func latencyTable(outs []*outcome) []string {
	by := map[string][]float64{}
	for _, o := range outs {
		if o.status != 0 {
			g := o.req.group
			if g == "" {
				g = o.req.sig
			}
			by[g] = append(by[g], o.latMs)
		}
	}
	sigs := make([]string, 0, len(by))
	for s := range by {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs)
	var lines []string
	for _, s := range sigs {
		ms := by[s]
		lines = append(lines, fmt.Sprintf("%-32s n=%-4d raw p50 %9.2f ms  max %9.2f ms", s, len(ms), percentile(ms, 50), percentile(ms, 100)))
	}
	return lines
}
