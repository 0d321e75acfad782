package stats

import (
	"runtime"
	"time"
)

// AllocsPerOp measures op's heap allocations per call as a fraction — the
// one measurement behind every zero-alloc gate (the engine's hot-path test
// and experiment E12). It collects garbage, runs op(0..n-1) once unmeasured
// (the collection empties sync.Pool scratch, and the warm pass pays the
// refills), then runs op(0..n-1) again and divides the Mallocs and
// TotalAlloc deltas by n; elapsed is the measured pass's wall-clock time.
// Unlike testing.AllocsPerRun, which rounds down to a whole number, a path
// that allocates on every second call measures 0.5.
func AllocsPerOp(n int, op func(i int)) (allocs, bytes float64, elapsed time.Duration) {
	runtime.GC()
	for i := 0; i < n; i++ {
		op(i)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	elapsed = time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n),
		float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n), elapsed
}
