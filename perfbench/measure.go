package main

import (
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
)

// measurement is what every workload collects for the end-to-end
// metrics. Times are raw; fill normalizes each with the kernel samples
// taken around it (clock.factorAt).
type measurement struct {
	clk       *clock
	setupRaw  []float64 // seconds per set-up repeat
	setupAt   []time.Time
	measured  time.Duration
	latMs     []float64 // completed requests
	latAt     []time.Time
	attempted int
	failed    int
	solvesRan int
	rows      []*bench.Table1Row // one per returned solve, for the improvements
	converged int
	rssMB     float64
}

// addSolve records one returned solve on a circuit whose uniform-size
// starting point is init.
func (m *measurement) addSolve(init initMetrics, r *core.Result) {
	m.rows = append(m.rows, &bench.Table1Row{
		InitNoisePF: init.noise / 1000, FinNoisePF: r.NoiseLinFF / 1000,
		InitAreaUM2: init.area, FinAreaUM2: r.Area,
	})
	if r.Converged {
		m.converged++
	}
}

// initMetrics is a circuit's uniform-size area and noise, the base of
// the improvement percentages.
type initMetrics struct{ area, noise float64 }

func (m *measurement) fill(res *result) {
	k := m.clk.kRun()
	sec := m.measured.Seconds()
	n := len(m.latMs)
	p, beyond := tailPercentile(n)
	noise, _, _, area := bench.Improvements(m.rows)

	local := func(xs []float64, at []time.Time) []float64 {
		out := make([]float64, len(xs))
		for i := range xs {
			out[i] = xs[i] * m.clk.factorAt(at[i])
		}
		return out
	}
	nsec := m.clk.normMeasured()
	lat := local(m.latMs, m.latAt)
	res.metrics["setup_s"] = median(local(m.setupRaw, m.setupAt))
	res.metrics["requests_per_s"] = float64(n) / nsec
	res.metrics["solves_per_s"] = float64(m.solvesRan) / nsec
	res.metrics["request_ms.p50"] = median(lat)
	res.metrics["request_ms.tail"] = percentile(lat, p)
	res.metrics["success_ratio"] = ratio(float64(m.attempted-m.failed), float64(m.attempted))
	res.metrics["peak_rss_mb"] = m.rssMB
	res.metrics["area_impr_pct"] = area
	res.metrics["noise_impr_pct"] = noise
	res.metrics["converged_frac"] = ratio(float64(m.converged), float64(len(m.rows)))
	res.notes["setup_s"] = fmt.Sprintf("median of %d set-ups", len(m.setupRaw))
	res.notes["request_ms.tail"] = fmt.Sprintf("p%d of %d requests, %d beyond", p, n, beyond)
	res.notes["solves_per_s"] = fmt.Sprintf("%d solves", m.solvesRan)
	res.notes["converged_frac"] = fmt.Sprintf("%d of %d returned solves", m.converged, len(m.rows))

	res.metrics["host.calib_ms"] = k
	res.metrics["host.raw_requests_per_s"] = float64(n) / sec
	res.metrics["host.raw_request_ms.p50"] = median(m.latMs)
	res.metrics["host.raw_setup_s"] = median(m.setupRaw)
	res.attempted, res.failed = m.attempted, m.failed
	res.info = append(res.info,
		fmt.Sprintf("requests %d attempted, %d failed; measured %.2fs raw; tail percentile p%d (%d beyond)", m.attempted, m.failed, sec, p, beyond),
		fmt.Sprintf("host kernel median %.3f ms over %d samples (reference %.1f ms)", k, len(m.clk.samples()), refKernelMs),
		fmt.Sprintf("raw: setup_s %.6g  requests_per_s %.6g  solves_per_s %.6g  request_ms.p50 %.6g  request_ms.tail %.6g",
			median(m.setupRaw), float64(n)/sec, float64(m.solvesRan)/sec, median(m.latMs), percentile(m.latMs, p)))
}
