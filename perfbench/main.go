// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload — table1, service or farm — over a seeded, fixed request list,
// checks every output it receives, and prints each metric by name and
// unit, ending with one JSON line:
//
//	perfbench -workload service -seed 1 -seconds 25 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it runs
// the same workload with spans recorded around every call into a layer,
// writes them to a trace file, and reports the per-layer metrics.
// perfbench/run.sh builds the binaries and runs it from the repository
// root; NOTES.md explains the design and the noise it was tuned against.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// refKernelMs is the calibration kernel's median time (two copies at
// once) on the reference host. Every timing is reported as if the
// kernel had taken exactly this long during the run.
const refKernelMs = 22.0

var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"requests_per_s", "req/s"},
	{"solves_per_s", "solves/s"},
	{"request_ms.p50", "ms"},
	{"request_ms.tail", "ms"},
	{"success_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
	{"area_impr_pct", "%"},
	{"noise_impr_pct", "%"},
	{"converged_frac", "ratio"},
}

var layerUnits = []struct{ name, unit string }{
	{"bench.build_ms", "ms"},
	{"rc.node_visits_per_sweep", "count"},
	{"rc.cone_share", "ratio"},
	{"rc.recompute_us", "us"},
	{"core.solve_ms.p50", "ms"},
	{"core.iterations_per_solve", "count"},
	{"core.lrs_sweeps_per_solve", "count"},
	{"core.sweep_us", "us"},
	{"core.iter_us_per_component", "us"},
	{"core.width_speedup", "x"},
	{"core.hyst_trips_per_solve", "count"},
	{"sweep.first_cell_ms.p50", "ms"},
	{"sweep.cells_per_s", "1/s"},
	{"sweep.lockstep_speedup", "x"},
	{"variation.sample_ms", "ms"},
	{"variation.lockstep_speedup", "x"},
	{"service.overhead_ms.p50", "ms"},
	{"service.dedup_ms.p50", "ms"},
	{"service.dedup_share", "ratio"},
	{"service.response_kb.p50", "KB"},
	{"service.shed_share", "ratio"},
	{"store.put_ms.p50", "ms"},
	{"farm.lease_overhead_ms.p50", "ms"},
	{"farm.jobs_requeued", "count"},
	{"farm.worker_balance", "ratio"},
	{"farm.stream_incomplete_share", "ratio"},
	{"host.calib_ms", "ms"},
	{"host.raw_requests_per_s", "req/s"},
	{"host.raw_request_ms.p50", "ms"},
	{"host.raw_setup_s", "s"},
	{"trace.overhead_pct", "%"},
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	binDir   string // holds the built ogwsd and ogws-worker
	workDir  string // scratch space inside the checkout
}

// result is what a workload hands back to be printed.
type result struct {
	metrics   map[string]float64
	notes     map[string]string
	info      []string
	attempted int
	failed    int
	// problems lists every verification failure; any entry makes the run
	// incorrect.
	problems []string
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, notes: map[string]string{}}
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*config) (*result, error){
	"table1":  runTable1,
	"service": runService,
	"farm":    runFarm,
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: table1, service or farm")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the request order (same seed, same inputs)")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "target length of the measured phase at reference host speed; sets the whole number of passes")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&cfg.binDir, "bin", ".bench_build/bin", "directory holding the built ogwsd and ogws-worker binaries")
	flag.StringVar(&cfg.workDir, "work", ".bench_build/work", "scratch directory for stores, address files and traces")
	flag.Parse()
	cfg.trace = *trace == 1
	run, ok := workloads[cfg.workload]
	if !ok {
		fatalf("unknown -workload %q (want table1, service or farm)", cfg.workload)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	start := time.Now()
	res, err := run(&cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s finished in %.1fs\n", cfg.workload, time.Since(start).Seconds())
	printResult(os.Stdout, &cfg, res)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// printResult writes the human-readable table, then the JSON line.
func printResult(w io.Writer, cfg *config, res *result) {
	units := e2eUnits
	if cfg.trace {
		units = layerUnits
	}
	fmt.Fprintf(w, "workload %s  seed %d  GOMAXPROCS %d\n", cfg.workload, cfg.seed, runtime.GOMAXPROCS(0))
	for _, line := range res.info {
		fmt.Fprintln(w, "  "+line)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jm{}
	for _, u := range units {
		v, ok := res.metrics[u.name]
		out[u.name] = jm{Value: v, Unit: u.unit}
		line := fmt.Sprintf("  %-28s %14.6g %s", u.name, v, u.unit)
		if n := res.notes[u.name]; n != "" {
			line += "  (" + n + ")"
		} else if !ok {
			line += "  (not exercised by this workload)"
		}
		fmt.Fprintln(w, line)
	}
	for _, p := range res.problems {
		fmt.Fprintln(w, "  FAILED CHECK: "+p)
	}
	data, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{len(res.problems) == 0 && res.failed == 0, res.attempted, res.failed, out})
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Fprintln(w, string(data))
}

// tracePath is where a traced run writes its spans.
func tracePath(cfg *config) string {
	return filepath.Join(cfg.workDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
}

// summarizeTrace adds one info line per span name: count, total and
// self time.
func summarizeTrace(res *result, spans []span) {
	self := selfTimes(spans)
	type agg struct {
		n     int
		total int64
	}
	by := map[string]*agg{}
	for _, s := range spans {
		if s.Event || s.End < 0 {
			continue
		}
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.total += s.End - s.Start
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		res.info = append(res.info, fmt.Sprintf("span %-24s n=%-5d total %9.1f ms  self %9.1f ms",
			n, by[n].n, float64(by[n].total)/1e6, float64(self[n])/1e6))
	}
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parse %s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s has no VmHWM line", path)
}

// passesFor returns the whole number of passes that fills the requested
// seconds at reference speed, given one pass's reference length.
func passesFor(seconds, passRefSec float64, minPasses int) int {
	n := int(seconds/passRefSec + 0.5)
	return max(n, minPasses)
}
