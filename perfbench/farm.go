package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/sweep"
	"repro/internal/variation"
)

var sigmas = variation.Sigmas{R: 0.05, C: 0.05, Threshold: 0.08}

// farmSweep is one bounds-grid sweep the farm workload sends; iters 0
// is the default iteration cap.
type farmSweep struct {
	label  string
	ds, ns []float64
	cold   bool
	iters  int
}

var farmSweeps = []farmSweep{
	{"c432", []float64{1, 1.04, 1.08}, []float64{0.8, 0.9, 1.1, 1.3}, false, 0},
	{"c432", []float64{1, 1.04, 1.08}, []float64{0.8, 0.9, 1.1, 1.3}, true, 0},
	{"grid12x10", []float64{1, 1.06, 1.12}, []float64{0.8, 1, 1.3}, true, 12},
}

// goldenFarmSweep is the golden sweep (goldenGridSweep) in the same form.
var goldenFarmSweep = farmSweep{"grid12x10", []float64{1, 1.06, 1.12}, []float64{0.8, 1, 1.3}, false, 12}

// farmSweepCopies is how often a pass sends the sweep. The counts place
// the median inside the warm c432 sweeps and the tail inside the
// default-option grid solves, not in a gap between two classes.
func farmSweepCopies(s farmSweep) int {
	if s.label == "c432" && !s.cold {
		return 3
	}
	return 1
}

// farmMC is the seeded Monte-Carlo the farm workload sends besides the
// golden one; 200 iterations keep it from dominating a pass.
var farmMC = variation.MCOptions{Samples: 4, Seed: 11, Sigmas: sigmas, MaxIterations: 200}

// farmWorkload is ogwsd -coordinator with two ogws-worker processes (one
// solver goroutine each) on loopback, no store, two closed-loop
// clients. Requests are mostly exploration — warm and cold bounds-grid
// sweeps on c432 and the dense-coupled grid12x10, the golden sweep, a
// seeded and the golden Monte-Carlo — plus solves at default options.
// No store means every repeat is solved again and must come back equal.
func farmWorkload() *httpWorkload {
	return &httpWorkload{
		passRefSec: 1.9,
		minPasses:  3,
		calibEvery: 0,
		circuits:   []circuitDef{synthetic("c432"), gridCircuit()},
		start:      startFarm,
		ready:      func(a *api) error { return waitWorkers(a, 2) },
		template:   farmTemplate,
		probe:      farmProbe,
	}
}

func startFarm(cfg *config, dir string) ([]*proc, string, error) {
	srv, addr, err := startServer(cfg, dir, "-coordinator")
	if err != nil {
		return nil, "", err
	}
	procs := []*proc{srv}
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("w%d", i)
		w, err := startProc("ogws-worker "+name, filepath.Join(cfg.binDir, "ogws-worker"),
			[]string{"-coordinator", "http://" + addr, "-name", name, "-workers", "1"},
			filepath.Join(dir, name+".log"))
		if err != nil {
			for _, p := range procs {
				p.stop()
			}
			return nil, "", err
		}
		procs = append(procs, w)
	}
	return procs, addr, nil
}

// waitWorkers blocks until n workers are live on the coordinator.
func waitWorkers(a *api, n int) error {
	if err := healthy(a); err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st statsReply
		if err := a.do("GET", "/stats", nil, &st); err != nil {
			return err
		}
		if st.Farm != nil && st.Farm.LiveWorkers >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d workers registered", st.Farm.LiveWorkers, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func farmTemplate(_ int, cs map[string]*circuit) []unit {
	c432, grid := cs["c432"], cs["grid12x10"]
	var units []unit
	for _, s := range farmSweeps {
		kind := "warm"
		if s.cold {
			kind = "cold"
		}
		sig := fmt.Sprintf("sweep %s %dx%d %s", s.label, len(s.ds), len(s.ns), kind)
		rq := bufferedSweep(sig, cs[s.label], s.label, s.ds, s.ns, s.iters, s.cold)
		for i := 0; i < farmSweepCopies(s); i++ {
			units = append(units, unit{rq})
		}
	}
	mc := post("montecarlo", "montecarlo c432 seed11", "c432", "/montecarlo", map[string]any{
		"key": c432.key, "samples": farmMC.Samples, "seed": farmMC.Seed, "max_iterations": farmMC.MaxIterations,
		"sigmas": map[string]float64{"r": sigmas.R, "c": sigmas.C, "threshold": sigmas.Threshold},
	})
	mc.local = func() (any, error) {
		opt := farmMC
		b := c432.bounds
		opt.Bounds, opt.Workers = &b, 1
		return variation.MonteCarlo(c432.inst, opt)
	}
	c432Solve := unit{coldSolve("solve c432 default", c432, "c432", 1, 0, "")}
	gridSolve := coldSolve("solve grid12x10 default", grid, "grid12x10", 1, 0, "")
	gridSolve.heavy = true
	units = append(units, unit{goldenGridSweep(grid)}, unit{goldenMCReq(c432)}, unit{mc}, unit{gridSolve})
	for i := 0; i < 10; i++ {
		units = append(units, c432Solve)
	}
	return units
}

// farmProbe measures the farm's own layers: re-queues and worker
// balance from /stats, the lease round trip against a plain local
// ogwsd, and the lockstep decisions replayed in-process.
func farmProbe(cfg *config, run *httpRun, res *result) error {
	if f := run.stats.Farm; f != nil {
		res.metrics["farm.jobs_requeued"] = float64(f.JobsRequeued)
		lo, hi := -1.0, 0.0
		for _, w := range f.Workers {
			n := float64(w.SolvesCompleted + w.CellsSolved + w.SamplesSolved)
			if lo < 0 || n < lo {
				lo = n
			}
			hi = max(hi, n)
		}
		res.metrics["farm.worker_balance"] = ratio(lo, hi)
	}
	if err := leaseOverhead(cfg, run, res); err != nil {
		return err
	}
	if err := streamProbe(run, res); err != nil {
		return err
	}
	return lockstepProbes(run, res)
}

// streamProbe sends the warm c432 sweep as a streamed request ten times,
// one at a time, and reports the time to the first NDJSON cell and the
// share of streams that ended with cells missing. The timed phase uses
// buffered sweeps only: on this farm a streamed sweep can lose a cell
// (its last OnCell races the summary line), which would make the
// workload fail; this probe keeps that defect in view.
func streamProbe(run *httpRun, res *result) error {
	s := farmSweeps[0]
	rq := streamSweep("stream c432 3x4 warm", run.circuits[s.label], s.label, s.ds, s.ns, 0, false)
	var firstMs []float64
	incomplete := 0
	const n = 10
	for i := 0; i < n; i++ {
		id := run.tr.begin("http stream", 0, 0)
		r, err := run.api.call(rq.method, rq.path, rq.body, true)
		if r != nil && r.firstMs > 0 {
			run.tr.eventAt("http first cell", id, 0, r.firstAt)
		}
		run.tr.end(id)
		if err != nil {
			return err
		}
		if r.status != 200 {
			return fmt.Errorf("streamed sweep: %d: %.200s", r.status, r.body)
		}
		firstMs = append(firstMs, r.firstMs)
		if inspect(rq, r, nil).err != nil {
			incomplete++
		}
	}
	res.metrics["sweep.first_cell_ms.p50"] = normTime(median(firstMs), run.k)
	res.metrics["farm.stream_incomplete_share"] = float64(incomplete) / n
	res.notes["farm.stream_incomplete_share"] = fmt.Sprintf("%d of %d streamed sweeps lost a cell", incomplete, n)
	return nil
}

// leaseOverhead replays the farm's /solve requests one at a time,
// alternating between the farm and a plain local ogwsd (width 1, no
// coordinator), and reports the difference of the two medians.
func leaseOverhead(cfg *config, run *httpRun, res *result) error {
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("farm-%d-local", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	p, addr, err := startServer(cfg, dir)
	if err != nil {
		return err
	}
	defer p.stop()
	local := newAPI(addr, 1)
	defer local.close()
	for _, d := range farmWorkload().circuits {
		if err := local.do("POST", "/circuits", d.register, nil); err != nil {
			return err
		}
	}
	seen := map[string]bool{}
	var farmMs, localMs []float64
	for _, o := range run.outs {
		if o.req.kind != "solve" || seen[o.req.sig] {
			continue
		}
		seen[o.req.sig] = true
		for i := 0; i < 3; i++ {
			for _, side := range []struct {
				a   *api
				ms  *[]float64
				tag string
			}{{run.api, &farmMs, "farm"}, {local, &localMs, "local"}} {
				id := run.tr.begin("lease replay "+side.tag, 0, 0)
				r, err := side.a.call("POST", "/solve", o.req.body, false)
				run.tr.end(id)
				if err != nil {
					return err
				}
				if r.status != 200 {
					return fmt.Errorf("replay %s on %s: %d", o.req.sig, side.tag, r.status)
				}
				if got := inspect(o.req, r, nil); got.err != nil || got.digest != o.digest {
					res.problem("replay of %s on the %s server differs from the run", o.req.sig, side.tag)
				}
				*side.ms = append(*side.ms, r.latMs)
			}
		}
	}
	res.metrics["farm.lease_overhead_ms.p50"] = normTime(percentile(farmMs, 50)-percentile(localMs, 50), run.k)
	return nil
}

// lockstepProbes replays the farm's sweeps through sweep.Run and its
// Monte-Carlo runs through variation.MonteCarlo, each solo and in
// lockstep (alternating, best configuration each: solo sweeps spread
// cells over all cores, lockstep runs its batched rounds at all cores),
// and reports solo time ÷ lockstep time. Both must give equal results.
func lockstepProbes(run *httpRun, res *result) error {
	var solo, lock float64
	for _, s := range append(farmSweeps, goldenFarmSweep) {
		c := run.circuits[s.label]
		b := c.bounds
		base := sweep.Options{DelayScale: s.ds, NoiseScale: s.ns, Bounds: &b, MaxIterations: s.iters, Cold: s.cold}
		var digests [2][32]byte
		for i, lockstep := range []bool{false, true} {
			opt := base
			opt.Lockstep = lockstep
			if !lockstep {
				opt.Workers = 1
			}
			name := "sweep.Run solo"
			if lockstep {
				name = "sweep.Run lockstep"
			}
			id := run.tr.begin(name, 0, 0)
			t0 := time.Now()
			r, err := sweep.Run(c.inst, opt)
			d := msSince(t0)
			run.tr.end(id)
			if err != nil {
				return err
			}
			digests[i] = digest(stripSweep(r))
			if lockstep {
				lock += d
			} else {
				solo += d
			}
		}
		if digests[0] != digests[1] {
			res.problem("lockstep sweep of %s differs from solo", s.label)
		}
	}
	res.metrics["sweep.lockstep_speedup"] = ratio(solo, lock)

	solo, lock = 0, 0
	c := run.circuits["c432"]
	for _, base := range []variation.MCOptions{farmMC, {Samples: 8, Seed: 7, Sigmas: sigmas, MaxIterations: 20}} {
		b := c.bounds
		base.Bounds = &b
		var digests [2][32]byte
		for i, soloRun := range []bool{true, false} {
			opt := base
			opt.Solo = soloRun
			name := "variation.MonteCarlo lockstep"
			if soloRun {
				name = "variation.MonteCarlo solo"
			}
			id := run.tr.begin(name, 0, 0)
			t0 := time.Now()
			r, err := variation.MonteCarlo(c.inst, opt)
			d := msSince(t0)
			run.tr.end(id)
			if err != nil {
				return err
			}
			digests[i] = digest(r)
			if soloRun {
				solo += d
			} else {
				lock += d
			}
		}
		if digests[0] != digests[1] {
			res.problem("lockstep Monte-Carlo differs from solo")
		}
	}
	res.metrics["variation.lockstep_speedup"] = ratio(solo, lock)
	return nil
}

func runFarm(cfg *config) (*result, error) { return runHTTP(cfg, farmWorkload()) }
