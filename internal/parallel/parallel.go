// Package parallel is the shared work-scheduling layer under every
// multi-core code path of the repository: the engine's batched request
// executor (Session.DoBatch), the parallel build and probe phases of the
// PBSM, S3 and TOUCH joins, and parallel tissue generation.
//
// The design goal is determinism: a parallel execution must produce exactly
// the same observable output as the serial one, independent of the worker
// count and of goroutine scheduling. The package achieves it with one
// pattern, extracted from TOUCH's original probe-phase parallelism:
//
//   - work is split into indexed slots (one per query, grid cell, bucket,
//     node pair, or neuron);
//   - a bounded pool of workers pulls contiguous chunks of slot indexes off
//     an atomic cursor, so load balances dynamically without per-item
//     channel traffic;
//   - anything a slot emits is buffered per slot, and the buffers are merged
//     in slot order after the pool drains.
//
// Slot order equals serial iteration order, so the merged output is
// byte-for-byte the order a single-threaded loop would have produced. The
// differential tests in the repository root assert exactly that property for
// every join algorithm and the batched request path.
//
// Mutable per-worker state (scratch stacks, stats accumulators) is indexed
// by the worker id passed to every callback; workers never share mutable
// state, so the hot loops run lock-free.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values > 0 are returned as-is;
// zero and negative values select runtime.NumCPU(). The result is always at
// least 1.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	if c := runtime.NumCPU(); c > 1 {
		return c
	}
	return 1
}

// Range is a half-open slot interval [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// Len returns the number of slots in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Split partitions [0, n) into at most parts contiguous near-equal ranges,
// larger ranges first. It returns fewer ranges when n < parts and nil when
// n <= 0. Batch builders use it to give each worker one contiguous block
// whose partial results can be concatenated in block order.
func Split(n, parts int) []Range {
	if n <= 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	if parts < 1 {
		parts = 1
	}
	out := make([]Range, 0, parts)
	lo := 0
	for i := 0; i < parts; i++ {
		size := (n - lo) / (parts - i)
		if rem := (n - lo) % (parts - i); rem > 0 {
			size++
		}
		out = append(out, Range{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// ForEach runs fn(worker, slot) for every slot in [0, n) across a bounded
// pool of workers. Slots are handed out in contiguous chunks via an atomic
// cursor, so the scheduling is dynamic (a slow slot does not stall the
// others) while each chunk still runs in ascending slot order. worker is in
// [0, Workers(workers)) and identifies the goroutine, so callbacks can index
// per-worker scratch state without locks.
//
// When the resolved worker count is 1 (or n <= 1), fn runs on the calling
// goroutine with worker == 0 and no goroutines are spawned.
//
//neurospatial:hotpath
func ForEach(workers, n int, fn func(worker, slot int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	// Aim for several chunks per worker so dynamic scheduling can balance
	// skewed slot costs, but keep chunks coarse enough that the cursor is
	// not contended.
	chunk := n / (w * 4)
	if chunk < 1 {
		chunk = 1
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < w; wk++ {
		wg.Add(1)
		//lint:ignore hotpath w goroutine closures per call — worker count, not slot count
		go func(wk int) {
			defer wg.Done()
			for {
				hi := int(cursor.Add(int64(chunk)))
				lo := hi - chunk
				if lo >= n {
					return
				}
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(wk, i)
				}
			}
		}(wk)
	}
	wg.Wait()
}

// seg records where one slot's emissions landed: the half-open interval
// [start, end) of the owning worker's emission buffer. Each slot runs wholly
// on one worker, and a worker executes its slots one at a time, so the
// interval is contiguous and written race-free by that worker alone.
type seg struct {
	worker, start, end int
}

// segPool recycles the per-call slot→segment tables. The table is the only
// O(slots) allocation of the buffered executors; pooling it (and keeping the
// emission buffers per worker rather than per slot) makes the steady-state
// allocation profile of a batch proportional to the worker count, not the
// batch size.
var segPool = sync.Pool{New: func() any {
	b := make([]seg, 0, 64)
	return &b
}}

// getSegs returns a pooled slot→segment table of length n (zeroed by
// construction: every slot writes its entry before it is read).
//
//neurospatial:hotpath
func getSegs(n int) (*[]seg, []seg) {
	box := segPool.Get().(*[]seg)
	b := *box
	if cap(b) < n {
		//lint:ignore hotpath pool refill when the table first grows to n slots; amortized across the pool
		b = make([]seg, n)
	} else {
		b = b[:n]
	}
	return box, b
}

// putSegs recycles a table obtained from getSegs.
//
//neurospatial:hotpath
func putSegs(box *[]seg, b []seg) {
	*box = b[:0]
	segPool.Put(box)
}

// workerBuf is one worker's emission buffer plus its reusable emit closure.
// The closure is bound once per worker (not once per slot), so a batch of n
// slots on w workers creates w closures, not n.
type workerBuf[T any] struct {
	buf  []T
	emit func(T)
}

// newWorkerBufs returns w bound worker buffers.
func newWorkerBufs[T any](w int) []workerBuf[T] {
	wbs := make([]workerBuf[T], w)
	for i := range wbs {
		wb := &wbs[i]
		wb.emit = func(t T) { wb.buf = append(wb.buf, t) }
	}
	return wbs
}

// Collect runs work for every slot in [0, n) across the pool and delivers
// everything the slots emit to sink in slot order — the deterministic
// ordered merge of per-worker result buffers. Within one slot, emissions keep
// their emit order; across slots, slot order rules. The net effect: sink
// observes exactly the sequence a serial loop `for i { work(0, i, sink) }`
// would produce, for any worker count.
//
// Emissions are buffered per worker (each slot's output is a contiguous
// segment of its worker's buffer), so buffering allocates with the worker
// count rather than the slot count; the slot→segment table that drives the
// ordered replay is pooled.
//
// work must not retain its emit function past its own return. sink runs on
// the calling goroutine only.
func Collect[T any](workers, n int, work func(worker, slot int, emit func(T)), sink func(T)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			work(0, i, sink)
		}
		return
	}
	wbs := newWorkerBufs[T](w)
	segBox, segs := getSegs(n)
	ForEach(w, n, func(worker, slot int) {
		wb := &wbs[worker]
		start := len(wb.buf)
		work(worker, slot, wb.emit)
		segs[slot] = seg{worker, start, len(wb.buf)}
	})
	for _, sg := range segs {
		for _, t := range wbs[sg.worker].buf[sg.start:sg.end] {
			sink(t)
		}
	}
	putSegs(segBox, segs)
}

// discard is the no-op emit handed to slot runners when the caller asked for
// summaries only. A named function (rather than a literal) so the buffered
// executors do not allocate a closure per slot for it.
func discard[H any](H) {}

// BatchCtx is the deterministic batch executor under the engine's
// Session.DoBatch: run executes slot qi, emitting hits of type H and
// returning that slot's summary of type S or an error. The determinism
// contract is all-or-nothing: on success visit receives exactly the (slot,
// hit) pairs a serial loop would produce, in slot order, for any worker
// count; on failure nothing is visited and the error is deterministic.
//
// The worker contract matches every Workers knob in the repository: 0 or 1
// executes serially on the calling goroutine, values > 1 use that many
// workers, and negative values use one worker per CPU. Hits are buffered per
// slot and replayed in slot order on the calling goroutine once every slot
// has succeeded. A nil visit skips result buffering entirely (summaries
// only).
//
// Cancellation is checked before every slot in every worker (and the slot
// runners themselves check at page-read granularity via their page sources),
// so a canceled batch stops promptly: in-flight slots abort at their next
// page read, unstarted slots never run. A canceled ctx always wins the error:
// BatchCtx returns (nil, ctx.Err()). Slot errors unrelated to ctx do not stop
// other slots (they are expected to be rare — request validation happens
// before execution); after the pool drains, the error of the lowest-indexed
// failed slot is returned, so the reported error does not depend on
// scheduling.
func BatchCtx[S, H any](ctx context.Context, workers, n int,
	run func(qi int, emit func(H)) (S, error),
	visit func(qi int, h H)) ([]S, error) {

	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]S, n)
	if n == 0 {
		return out, nil
	}
	errsBox, errs := getErrs(n)
	defer putErrs(errsBox, errs)
	w := 1
	if workers != 0 && workers != 1 {
		w = Workers(workers)
	}
	if w > n {
		w = n
	}
	var wbs []workerBuf[H]
	var segs []seg
	if visit != nil {
		wbs = newWorkerBufs[H](w)
		segBox, segSlice := getSegs(n)
		segs = segSlice
		defer putSegs(segBox, segSlice)
	}
	runSlot := func(worker, qi int) {
		if ctx.Err() != nil {
			return
		}
		if visit == nil {
			out[qi], errs[qi] = run(qi, discard[H])
			return
		}
		wb := &wbs[worker]
		start := len(wb.buf)
		out[qi], errs[qi] = run(qi, wb.emit)
		segs[qi] = seg{worker, start, len(wb.buf)}
	}
	if w <= 1 || n <= 1 {
		for qi := 0; qi < n; qi++ {
			runSlot(0, qi)
		}
	} else {
		ForEach(w, n, runSlot)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for qi := range errs {
		if errs[qi] != nil {
			return nil, errs[qi]
		}
	}
	if visit != nil {
		for qi, sg := range segs {
			for _, h := range wbs[sg.worker].buf[sg.start:sg.end] {
				visit(qi, h)
			}
		}
	}
	return out, nil
}

// errsPool recycles the per-slot error tables of BatchCtx; entries are
// cleared on release so a recycled table never reports a stale failure.
var errsPool = sync.Pool{New: func() any {
	b := make([]error, 0, 64)
	return &b
}}

// getErrs returns a pooled, zeroed error table of length n.
func getErrs(n int) (*[]error, []error) {
	box := errsPool.Get().(*[]error)
	b := *box
	if cap(b) < n {
		b = make([]error, n)
	} else {
		b = b[:n]
		clear(b)
	}
	return box, b
}

// putErrs clears and recycles a table obtained from getErrs.
func putErrs(box *[]error, b []error) {
	clear(b)
	*box = b[:0]
	errsPool.Put(box)
}

// Map runs fn for every slot in [0, n) across the pool and returns the
// results indexed by slot.
func Map[T any](workers, n int, fn func(worker, slot int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	ForEach(workers, n, func(worker, slot int) {
		out[slot] = fn(worker, slot)
	})
	return out
}

// Do runs the given functions concurrently, one goroutine each (bounded by
// the number of functions), and returns when all have finished. Join builds
// use it to construct the two operand indexes at the same time.
func Do(fns ...func()) {
	if len(fns) == 1 {
		fns[0]()
		return
	}
	var wg sync.WaitGroup
	for _, fn := range fns {
		wg.Add(1)
		go func(fn func()) {
			defer wg.Done()
			fn()
		}(fn)
	}
	wg.Wait()
}
