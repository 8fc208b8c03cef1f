package main

import (
	"sort"
	"sync"
	"time"

	"repro/perfbench/calib"
)

// clock times a workload's measured phase and keeps the host-speed
// samples that normalize it. Requests run between enter and leave; the
// calibration kernel runs only while no request is in flight (it takes
// the gate exclusively), and the time it holds the gate is excluded
// from the measured time.
type clock struct {
	gate sync.RWMutex
	ks   []*calib.Kernel
	reps int // kernel runs per calibration

	mu       sync.Mutex
	kernelMs []float64
	events   []calEvent
	paused   time.Duration

	start, end time.Time
	stop       chan struct{}
	done       chan struct{}
}

// calEvent is one calibration: when it held the gate and what the
// kernel took.
type calEvent struct {
	start, end time.Time
	ms         []float64
}

// newClock builds width kernel copies (one per core the workload keeps
// busy) and warms them, so first-touch page faults are not sampled.
func newClock(width, reps int) *clock {
	c := &clock{reps: reps}
	for i := 0; i < width; i++ {
		c.ks = append(c.ks, calib.New())
	}
	calib.Time(c.ks)
	calib.Time(c.ks)
	return c
}

// calibrate waits for in-flight requests to finish, runs the kernel
// reps times on every copy at once, and records each time.
func (c *clock) calibrate() {
	c.gate.Lock()
	held := time.Now()
	var ms []float64
	for i := 0; i < c.reps; i++ {
		ms = append(ms, float64(calib.Time(c.ks))/1e6)
	}
	c.mu.Lock()
	c.kernelMs = append(c.kernelMs, ms...)
	c.events = append(c.events, calEvent{start: held, end: time.Now(), ms: ms})
	c.paused += time.Since(held)
	c.mu.Unlock()
	c.gate.Unlock()
}

// begin starts the measured phase. With every > 0 a background loop
// calibrates at that period; with every == 0 the caller calibrates.
func (c *clock) begin(every time.Duration) {
	c.mu.Lock()
	c.paused = 0
	c.mu.Unlock()
	c.start = time.Now()
	c.stop, c.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(c.done)
		if every <= 0 {
			return
		}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.calibrate()
			}
		}
	}()
}

// finish ends the measured phase and returns its length without the
// calibration pauses.
func (c *clock) finish() time.Duration {
	close(c.stop)
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	c.end = time.Now()
	return c.end.Sub(c.start) - c.paused
}

// enter and leave bracket one request.
func (c *clock) enter() { c.gate.RLock() }
func (c *clock) leave() { c.gate.RUnlock() }

// kRun is the run's median kernel time in ms.
func (c *clock) kRun() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return median(c.kernelMs)
}

func (c *clock) samples() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.kernelMs...)
}

// factorAt is the normalization factor for work done at time t:
// refKernelMs over the median kernel time of the two calibrations
// before t and the two after it, so that drift within a run is
// followed. Call after finish.
func (c *clock) factorAt(t time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := sort.Search(len(c.events), func(i int) bool { return c.events[i].start.After(t) })
	var ms []float64
	for _, e := range c.events[max(0, i-2):min(len(c.events), i+2)] {
		ms = append(ms, e.ms...)
	}
	return refKernelMs / median(ms)
}

// normMeasured is the measured phase in seconds at reference speed: each
// stretch between calibrations weighted by the factor at its middle.
func (c *clock) normMeasured() float64 {
	c.mu.Lock()
	var gaps [][2]time.Time
	t := c.start
	for _, e := range c.events {
		if e.start.Before(c.start) || e.end.After(c.end) {
			continue
		}
		gaps = append(gaps, [2]time.Time{t, e.start})
		t = e.end
	}
	gaps = append(gaps, [2]time.Time{t, c.end})
	c.mu.Unlock()
	total := 0.0
	for _, g := range gaps {
		d := g[1].Sub(g[0])
		total += d.Seconds() * c.factorAt(g[0].Add(d/2))
	}
	return total
}
