package main

import (
	"runtime"
	"time"
)

// The shared host this benchmark runs on slows down by up to 2.4x for ten
// minutes and more at a time, and by less for seconds at a time: its CPUs
// execute the same code slower, with no steal time and CPU time tracking
// wall time (README.md). To keep end-to-end times comparable across such
// phases, a timed run also times a fixed reference workload right after
// each pass and each set-up, and expresses their times in units of the
// reference's. The reference lives in this package, so no change to the
// simulator can move it. Allocation churn tracked the simulator's
// slowdowns best among the kernels tried (integer, floating-point,
// cache-resident table, small event simulation).

// measuredPrefix starts the line on which a timed run prints its unscaled
// times.
const measuredPrefix = "bench: as measured: "

// refNominal converts times in reference units back to seconds. It is
// about the reference's median time on the 2-vCPU host the bounds were
// set on, in a quiet period; it only fixes the scale, and comparisons
// divide it out.
const refNominal = 18 * time.Millisecond

type refNode struct {
	next *refNode
	v    float64
	pad  [6]float64
}

var refSink float64

// reference runs the reference workload once and returns its duration:
// build and walk thirty 10,000-object linked lists. That exercises the
// allocator, the collector and memory the way the simulator's per-session
// churn does, while the live set stays under 1 MB, so the reference never
// sets the process's peak RSS.
func reference() time.Duration {
	runtime.GC()
	start := time.Now()
	for r := 0; r < 30; r++ {
		var head *refNode
		for i := 0; i < 10_000; i++ {
			head = &refNode{next: head, v: float64(i)}
		}
		s := 0.0
		for n := head; n != nil; n = n.next {
			s += n.v
		}
		refSink += s
	}
	return time.Since(start)
}
