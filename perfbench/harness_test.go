package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, p, beyond int }{
		{20, 52, 10},
		{100, 90, 10},
		{210, 95, 11},
		{1000, 99, 10},
		{3340, 99, 34},
		{9, 0, 8},
	} {
		p, beyond := tailPercentile(tc.n)
		if p != tc.p || beyond != tc.beyond {
			t.Errorf("tailPercentile(%d) = p%d with %d beyond, want p%d with %d", tc.n, p, beyond, tc.p, tc.beyond)
		}
		// Count directly: samples 1..n, strictly above the percentile.
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		v, above := percentile(xs, p), 0
		for _, x := range xs {
			if x > v {
				above++
			}
		}
		if p > 0 && above != beyond {
			t.Errorf("n=%d: p%d = %g has %d samples above it, tailPercentile says %d", tc.n, p, v, above, beyond)
		}
		if p > 0 && p < 99 && tc.n-1-int(rankPos(p+1, tc.n)) >= minBeyond {
			t.Errorf("n=%d: p%d is not the highest qualifying percentile", tc.n, p)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6}
	for _, tc := range []struct {
		p    int
		want float64
	}{{0, 1}, {50, 3.5}, {90, 5.5}, {100, 6}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%d = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd-length median = %g, want 2", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

func TestNormalization(t *testing.T) {
	const eps = 1e-12
	if got := normTime(40, refKernelMs); math.Abs(got-40) > eps {
		t.Errorf("at reference speed a time is unchanged, got %g", got)
	}
	// A host twice as slow as the reference: the kernel takes twice as
	// long, so times halve and rates double when reported.
	if got := normTime(40, 2*refKernelMs); math.Abs(got-20) > eps {
		t.Errorf("normTime on a 2x slower host = %g, want 20", got)
	}
	if got := normRate(5, 2*refKernelMs); math.Abs(got-10) > eps {
		t.Errorf("normRate on a 2x slower host = %g, want 10", got)
	}
	// A rate and the time per item must stay reciprocal.
	k := 31.7
	if got := normTime(1/8.0, k) * normRate(8, k); math.Abs(got-1) > eps {
		t.Errorf("normTime(1/r)·normRate(r) = %g, want 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 2, Name: "leaf", Start: 15, End: 20},
		{ID: 5, Parent: 2, Name: "tick", Start: 25, End: 25, Event: true},
		{ID: 6, Parent: 1, Name: "open", Start: 70, End: -1}, // never closed
	}
	want := map[string]int64{"root": 50, "a": 25, "b": 30, "leaf": 5}
	got := selfTimes(spans)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
	for _, name := range []string{"tick", "open"} {
		if _, ok := got[name]; ok {
			t.Errorf("%s has a self time; events and open spans have none", name)
		}
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 1)
	tr.event("e", id, 1)
	tr.end(id)
	if id != 0 || tr.snapshot() != nil {
		t.Error("a nil tracer recorded something")
	}
	tr = newTracer()
	id = tr.begin("x", 0, 1)
	tr.event("e", id, 1)
	tr.end(id)
	if s := tr.snapshot(); len(s) != 2 || s[1].Parent != id || s[0].End < s[0].Start {
		t.Errorf("recorded spans %+v", s)
	}
}

// The calibration kernel must not move when the program changes.
func TestCalibImportsNothingFromTheProgram(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("calib", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no calib sources: %v", err)
	}
	for _, f := range files {
		ast, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range ast.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "repro" || strings.HasPrefix(path, "repro/") {
				t.Errorf("%s imports %s", f, path)
			}
		}
	}
}

func TestScheduleIsSeededAndPutsHeavyFirst(t *testing.T) {
	template := func(int) []unit {
		var us []unit
		for i := 0; i < 8; i++ {
			us = append(us, unit{{sig: strconv.Itoa(i), heavy: i == 5}})
		}
		return us
	}
	sigs := func(seed uint64) string {
		_, units := schedule(seed, 3, template)
		var b strings.Builder
		for _, u := range units {
			b.WriteString(u[0].sig)
		}
		return b.String()
	}
	a, b := sigs(1), sigs(1)
	if a != b {
		t.Errorf("same seed, different order: %s vs %s", a, b)
	}
	if sigs(2) == a {
		t.Error("different seeds gave the same order")
	}
	for p := 0; p < 3; p++ {
		if a[8*p] != '5' {
			t.Errorf("pass %d does not start with the heavy unit: %s", p, a)
		}
	}
}

func TestParseStreamOrdersCellsAndRejectsGaps(t *testing.T) {
	full := `{"Row":1,"Col":0,"SolveSec":0.5}
{"Row":0,"Col":0,"SolveSec":0.7}
{"done":true,"rows":2,"cols":1,"frontier":[0],"solve_sec":1}
`
	g, err := parseStream([]byte(full))
	if err != nil {
		t.Fatal(err)
	}
	if g.Cells[0].Row != 0 || g.Cells[1].Row != 1 || g.Cells[0].SolveSec != 0 {
		t.Errorf("cells not ordered and stripped: %+v", g.Cells)
	}
	missing := `{"Row":0,"Col":0}
{"done":true,"rows":2,"cols":1,"frontier":[0]}
`
	if _, err := parseStream([]byte(missing)); err == nil {
		t.Error("a stream missing a cell parsed")
	}
	if _, err := parseStream([]byte(`{"Row":0,"Col":0}`)); err == nil {
		t.Error("a stream without its summary parsed")
	}
}

// BENCHMARK.json must name exactly the metrics the benchmark prints.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, e2eUnits)
	check("per_layer", bj.PerLayer, layerUnits)
}
