// Package calib is the benchmark's host-speed probe: a fixed amount of
// pure Go work — exp/log over a cache-resident slice plus a dependent
// walk over a buffer larger than the last-level cache — whose time tracks
// how fast this machine runs right now. It imports nothing from the
// program under test, so a change to the program cannot move it.
package calib

import (
	"math"
	"sync"
	"time"
)

const (
	mathLen  = 2048    // 16 KiB of float64: stays in L1
	mathReps = 48      // exp+log rounds over the slice per run
	walkLen  = 1 << 21 // 8 MiB of int32: spills past a small LLC
	walkHops = 1 << 17 // dependent loads per run
)

// Kernel is one copy of the probe's working set. A Kernel is used by one
// goroutine at a time.
type Kernel struct {
	vals []float64
	next []int32
	sink float64
}

// New builds a kernel whose memory walk is one fixed pseudo-random cycle
// through the whole buffer (Sattolo's shuffle with a fixed LCG), so every
// run does the same loads in the same order.
func New() *Kernel {
	k := &Kernel{vals: make([]float64, mathLen), next: make([]int32, walkLen)}
	for i := range k.vals {
		k.vals[i] = 1 + float64(i%97)/97
	}
	for i := range k.next {
		k.next[i] = int32(i)
	}
	s := uint64(0x9e3779b97f4a7c15)
	for i := walkLen - 1; i > 0; i-- {
		s = s*6364136223846793005 + 1442695040888963407
		j := int((s >> 33) % uint64(i))
		k.next[i], k.next[j] = k.next[j], k.next[i]
	}
	return k
}

// Run does the kernel's fixed work once and returns a checksum that
// depends on all of it, so the compiler cannot drop any part.
func (k *Kernel) Run() float64 {
	acc := 0.0
	for r := 0; r < mathReps; r++ {
		for i, v := range k.vals {
			acc += math.Exp(-v) + math.Log(v+float64(i&7))
		}
	}
	p := int32(0)
	for h := 0; h < walkHops; h++ {
		p = k.next[p]
	}
	k.sink = acc + float64(p)
	return k.sink
}

// Time runs one Run on every kernel at once, each on its own goroutine,
// and returns the wall time until the last finishes.
func Time(ks []*Kernel) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for _, k := range ks {
		wg.Add(1)
		go func(k *Kernel) {
			defer wg.Done()
			k.Run()
		}(k)
	}
	wg.Wait()
	return time.Since(start)
}
