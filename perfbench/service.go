package main

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/store"
	"repro/internal/sweep"
)

const (
	c17Path        = "testdata/c17.bench"
	goldenC17      = "testdata/golden/c17.json"
	goldenC432     = "testdata/golden/c432.json"
	goldenCorners  = "testdata/golden/c432-corners.json"
	goldenMC       = "testdata/golden/c432-mc-seed7.json"
	goldenGridPath = "internal/sweep/testdata/golden_grid.json"
)

func synthetic(name string) circuitDef {
	return circuitDef{label: name, register: map[string]any{"synthetic": name},
		build: func() (*bench.Instance, bench.Bounds, error) {
			spec, _ := bench.SpecByName(name)
			inst, err := bench.BuildInstance(spec, bench.PipelineOptions{})
			if err != nil {
				return nil, bench.Bounds{}, err
			}
			return inst, bench.DeriveBounds(inst), nil
		}}
}

func gridCircuit() circuitDef {
	return circuitDef{label: "grid12x10",
		register: map[string]any{"grid": map[string]any{"width": 12, "layers": 10, "coupled": true}},
		build:    func() (*bench.Instance, bench.Bounds, error) { return bench.GridInstance(12, 10, true) }}
}

// c17Circuit uploads testdata/c17.bench with geometry seed 17, the
// instance of the c17 golden fixture.
func c17Circuit() (circuitDef, error) {
	text, err := os.ReadFile(c17Path)
	if err != nil {
		return circuitDef{}, err
	}
	return circuitDef{label: "c17",
		register: map[string]any{"netlist": string(text), "name": "c17", "seed": 17},
		build: func() (*bench.Instance, bench.Bounds, error) {
			nl, err := netlist.Parse("c17", strings.NewReader(string(text)))
			if err != nil {
				return nil, bench.Bounds{}, err
			}
			inst, err := bench.AssembleNetlist(nl, 17, bench.PipelineOptions{})
			if err != nil {
				return nil, bench.Bounds{}, err
			}
			return inst, bench.DeriveBounds(inst), nil
		}}, nil
}

// startServer launches ogwsd on a free loopback port and returns it with
// its address.
func startServer(cfg *config, dir string, args ...string) (*proc, string, error) {
	addrFile := filepath.Join(dir, "addr")
	p, err := startProc("ogwsd", filepath.Join(cfg.binDir, "ogwsd"),
		append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...), filepath.Join(dir, "ogwsd.log"))
	if err != nil {
		return nil, "", err
	}
	addr, err := waitAddr(p, addrFile)
	if err != nil {
		p.stop()
		return nil, "", err
	}
	return p, addr, nil
}

func healthy(a *api) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := a.do("GET", "/healthz", nil, nil)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy: %w", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// localSolve is the server's /solve path through the library: a replica
// of the instance, the request's bounds and knobs at width 1, seeded
// with x and dual.
func localSolve(inst *bench.Instance, b bench.Bounds, maxIter int, x []float64, dual *core.DualState, warm bool) (*core.Result, *core.DualState, error) {
	ev, err := inst.Replica()
	if err != nil {
		return nil, nil, err
	}
	opt := core.DefaultOptions(b.A0, b.NoiseBound, b.PowerBound)
	if maxIter > 0 {
		opt.MaxIterations = maxIter
	}
	opt.Workers, opt.WarmStart = 1, warm
	sol, err := core.NewSolver(ev, opt)
	if err != nil {
		return nil, nil, err
	}
	defer sol.Close()
	res, err := sol.RunFromDual(x, dual)
	if err != nil {
		return nil, nil, err
	}
	return res, sol.DualState(), nil
}

func solveReq(sig string, c *circuit, label string, body map[string]any) *request {
	body["key"] = c.key
	return post("solve", sig, label, "/solve", body)
}

func resultsReq(sig string, c *circuit, label, name string) *request {
	return &request{sig: sig, kind: "results", circuit: label, method: "GET",
		path: "/results?key=" + url.QueryEscape(c.key) + "&name=" + url.QueryEscape(name)}
}

// coldSolve is a /solve at derived bounds with a0 scaled, checked
// in-process.
func coldSolve(sig string, c *circuit, label string, a0Scale float64, maxIter int, saveAs string) *request {
	b := c.bounds
	body := map[string]any{}
	if saveAs != "" {
		body["save_as"] = saveAs
	}
	if a0Scale != 1 {
		b.A0 *= a0Scale
		body["a0"] = b.A0
	}
	if maxIter > 0 {
		body["max_iterations"] = maxIter
	}
	rq := solveReq(sig, c, label, body)
	rq.local = func() (any, error) {
		r, _, err := localSolve(c.inst, b, maxIter, c.initX, nil, false)
		return r, err
	}
	return rq
}

// streamSweep is a streamed bounds-grid /sweep, checked in-process
// against sweep.Run.
func streamSweep(sig string, c *circuit, label string, ds, ns []float64, maxIter int, cold bool) *request {
	rq := sweepReq(sig, c, label, ds, ns, maxIter, cold, true)
	rq.local = func() (any, error) {
		r, err := localSweep(c, ds, ns, maxIter, cold)
		if err != nil {
			return nil, err
		}
		return &streamedGrid{Rows: r.Rows, Cols: r.Cols, Frontier: r.Frontier, Cells: r.Cells}, nil
	}
	return rq
}

// bufferedSweep is streamSweep with the whole grid in one reply.
func bufferedSweep(sig string, c *circuit, label string, ds, ns []float64, maxIter int, cold bool) *request {
	rq := sweepReq(sig, c, label, ds, ns, maxIter, cold, false)
	rq.local = func() (any, error) { return localSweep(c, ds, ns, maxIter, cold) }
	return rq
}

func sweepReq(sig string, c *circuit, label string, ds, ns []float64, maxIter int, cold, stream bool) *request {
	body := map[string]any{"key": c.key, "delay_scale": ds, "noise_scale": ns}
	if maxIter > 0 {
		body["max_iterations"] = maxIter
	}
	if cold {
		body["cold"] = true
	}
	if !stream {
		return post("sweep", sig, label, "/sweep", body)
	}
	body["stream"] = true
	return post("stream", sig, label, "/sweep", body)
}

// localSweep is the server's local /sweep path through the library, at
// the server's default solver width.
func localSweep(c *circuit, ds, ns []float64, maxIter int, cold bool) (*sweep.Result, error) {
	b := c.bounds
	r, err := sweep.Run(c.inst, sweep.Options{DelayScale: ds, NoiseScale: ns, Bounds: &b, MaxIterations: maxIter, Workers: 1, Cold: cold})
	if err != nil {
		return nil, err
	}
	return stripSweep(r), nil
}

func goldenGridSweep(c *circuit) *request {
	rq := post("sweep", "sweep grid12x10 golden", "grid12x10", "/sweep", map[string]any{
		"key": c.key, "delay_scale": []float64{1, 1.06, 1.12}, "noise_scale": []float64{0.8, 1, 1.3}, "max_iterations": 12,
	})
	rq.golden = goldenGridPath
	return rq
}

func goldenMCReq(c *circuit) *request {
	rq := post("montecarlo", "montecarlo c432 golden", "c432", "/montecarlo", map[string]any{
		"key": c.key, "samples": 8, "seed": 7, "max_iterations": 20,
		"sigmas": map[string]float64{"r": 0.05, "c": 0.05, "threshold": 0.08},
	})
	rq.golden = goldenMC
	return rq
}

// serviceWorkload is the real ogwsd with a durable store on loopback,
// at the default solver width 1, under two closed-loop clients. Most
// requests are cheap — registration cache hits, /solve answered by
// store dedup, GET /results, warm-start chains with save_as, golden
// c432 solves — beside a minority of small sweeps, the golden
// Monte-Carlo and the golden corners. Each pass also carries one solve
// no earlier pass asked for, so every pass writes a fresh fsync'd
// record next to its reads.
func serviceWorkload() (*httpWorkload, error) {
	c17, err := c17Circuit()
	if err != nil {
		return nil, err
	}
	return &httpWorkload{
		passRefSec: 0.14,
		minPasses:  2,
		calibEvery: 500 * time.Millisecond,
		circuits:   []circuitDef{c17, synthetic("c432"), synthetic("c880"), gridCircuit()},
		start: func(cfg *config, dir string) ([]*proc, string, error) {
			p, addr, err := startServer(cfg, dir, "-data", filepath.Join(dir, "data"))
			if err != nil {
				return nil, "", err
			}
			return []*proc{p}, addr, nil
		},
		ready:    healthy,
		template: serviceTemplate,
		probe:    serviceProbe,
	}, nil
}

func serviceTemplate(pass int, cs map[string]*circuit) []unit {
	c17, c432, c880, grid := cs["c17"], cs["c432"], cs["c880"], cs["grid12x10"]
	reg := func(label string) unit {
		return unit{post("register", "register "+label, label, "/circuits", cs[label].register)}
	}
	golden := func(sig string, c *circuit, label, path string, body map[string]any) *request {
		rq := solveReq(sig, c, label, body)
		rq.golden = path
		return rq
	}
	corners := post("corners", "corners c432 golden", "c432", "/sweep", map[string]any{"key": c432.key, "corners": true, "max_iterations": 20})
	corners.golden = goldenCorners

	// Warm-start chain on c880: a saved base, read back, then a solve at a
	// 3% looser delay bound seeded from it, itself saved and read back.
	base := coldSolve("solve c880 base", c880, "c880", 1, 60, "c880-base")
	warmB := c880.bounds
	warmB.A0 *= 1.03
	warm := solveReq("solve c880 warm", c880, "c880", map[string]any{
		"warm_from": "c880-base", "a0": warmB.A0, "max_iterations": 60, "save_as": "c880-warm"})
	warm.local = func() (any, error) {
		b0, d0, err := localSolve(c880.inst, c880.bounds, 60, c880.initX, nil, false)
		if err != nil {
			return nil, err
		}
		r, _, err := localSolve(c880.inst, warmB, 60, b0.X, d0, true)
		return r, err
	}
	// The same shape on c432 at default options, tightening the bound.
	tightB := c432.bounds
	tightB.A0 *= 0.995
	c432Base := solveReq("solve c432 base", c432, "c432", map[string]any{"save_as": "c432-base"})
	c432Tight := solveReq("solve c432 tight", c432, "c432", map[string]any{
		"warm_from": "c432-base", "a0": tightB.A0, "save_as": "c432-tight"})

	// One solve per pass that no other pass asks for: a cold c432 solve at
	// a pass-specific delay bound, sent four times (three are dedups).
	scale := 1 + 0.001*float64(pass+1)
	fresh := func() *request {
		rq := coldSolve(fmt.Sprintf("solve c432 a0x%.3f", scale), c432, "c432", scale, 0, "")
		rq.group = "solve c432 fresh"
		return rq
	}
	c880Chain := unit{base, resultsReq("results c880 base", c880, "c880", "c880-base"), warm, resultsReq("results c880 warm", c880, "c880", "c880-warm")}
	c432Chain := unit{c432Base, c432Tight, resultsReq("results c432 tight", c432, "c432", "c432-tight")}
	units := []unit{
		c880Chain, c880Chain, c432Chain, c432Chain,
		{goldenMCReq(c432)}, {goldenMCReq(c432)}, {corners}, {corners},
		{goldenGridSweep(grid)},
		{streamSweep("stream c432 2x2", c432, "c432", []float64{1, 1.05}, []float64{0.9, 1.2}, 20, false)},
	}
	for i := 0; i < 2; i++ {
		units = append(units,
			reg("c432"), reg("c880"), reg("grid12x10"), reg("c17"),
			unit{fresh()},
			unit{fresh()},
		)
	}
	for i := 0; i < 6; i++ {
		units = append(units,
			unit{golden("solve c432 golden", c432, "c432", goldenC432, map[string]any{"max_iterations": 30})},
			unit{golden("solve c17 golden", c17, "c17", goldenC17, map[string]any{})})
	}
	return units
}

// serviceProbe times store.Put with fsync, into a fresh directory, of
// records the size of the solves this run persisted.
func serviceProbe(cfg *config, run *httpRun, res *result) error {
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("storeprobe-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	var recs []*core.Result
	for _, o := range run.outs {
		if o.err == nil && o.req.kind == "solve" && o.ran > 0 {
			recs = append(recs, o.results[0])
		}
	}
	var ms []float64
	for i := 0; i < 40 && len(recs) > 0; i++ {
		id := run.tr.begin("store.Put", 0, 0)
		t0 := time.Now()
		err := st.Put(fmt.Sprintf("probe/%d", i), recs[i%len(recs)])
		ms = append(ms, msSince(t0))
		run.tr.end(id)
		if err != nil {
			st.Close()
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	res.metrics["store.put_ms.p50"] = normTime(percentile(ms, 50), run.k)
	return nil
}

func runService(cfg *config) (*result, error) {
	w, err := serviceWorkload()
	if err != nil {
		return nil, err
	}
	return runHTTP(cfg, w)
}
