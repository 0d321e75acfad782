package main

import (
	"context"
	"math/rand"
	"runtime"
	"time"

	"neurospatial/internal/durable"
	"neurospatial/internal/engine"
	"neurospatial/internal/geom"
	"neurospatial/internal/rtree"
)

// kinds is the request mix, issued round-robin so each kind gets a quarter
// of the requests.
var kinds = []engine.Kind{engine.Range, engine.KNN, engine.Point, engine.WithinDistance}

func kindIndex(k engine.Kind) int {
	for i, x := range kinds {
		if x == k {
			return i
		}
	}
	return -1
}

// Request shapes: a 20 µm range cube, the 10 nearest segments, a stab at a
// segment's centre and a 6 µm sphere, each placed at a random segment.
const (
	rangeHalf    = 10.0
	knnK         = 10
	withinRadius = 6.0
	poolSize     = 4096
)

// genRequests draws the request pool from the items: each request sits at a
// random item's centre, jittered by up to 2 µm (point stabs stay exact so
// they always hit).
func genRequests(items []rtree.Item, rng *rand.Rand) []engine.Request {
	reqs := make([]engine.Request, poolSize)
	for i := range reqs {
		c := items[rng.Intn(len(items))].Box.Center()
		j := geom.V(rng.Float64()*4-2, rng.Float64()*4-2, rng.Float64()*4-2)
		switch kinds[i%len(kinds)] {
		case engine.Range:
			reqs[i] = engine.RangeRequest(geom.BoxAround(c.Add(j), rangeHalf))
		case engine.KNN:
			reqs[i] = engine.KNNRequest(c.Add(j), knnK)
		case engine.Point:
			reqs[i] = engine.PointRequest(c)
		case engine.WithinDistance:
			reqs[i] = engine.WithinDistanceRequest(c.Add(j), withinRadius)
		}
	}
	return reqs
}

// dsHandle is the durable dataset the reader queries. The lifecycle swaps
// it at every reopen and counts the swaps in gen.
type dsHandle struct {
	dd  *engine.DurableDataset
	gen int
}

// Trace block modes: with tracing on, requests run in blocks of traceBlock
// that cycle plain, traced, plain, allocation-counted.
const (
	traceBlock = 256
	modePlain  = 0
	modeTraced = 1
	modeAlloc  = 3
)

// checkEvery is the share of requests whose answers are checked against the
// oracle: one in checkEvery.
const checkEvery = 16

// reader is one closed-loop client issuing the request pool through
// Session.Do. It may run in stretches: each run continues the request
// stream where the last one stopped.
type reader struct {
	h     *dsHandle
	reqs  []engine.Request
	trace bool
	// cycle, when set, is the lifecycle's completed-cycle count: the
	// reader's latencies are then chunked by cycle.
	cycle     *int
	seenCycle int
	next      int

	lat       [4]series
	attempted [4]int
	failed    [4]int
	samples   []sample
	qps       rate

	lt readTrace
}

// readTrace accumulates the per-layer view of the reader's requests.
type readTrace struct {
	modeOps  [4]int
	modeTime [4]time.Duration

	// Session.Do time in plain blocks and its traced decomposition, split by
	// plan-cache outcome (index 0 a hit, 1 a miss that planned and probed):
	// the two cost very differently, and the share of misses differs between
	// plain and traced blocks when epochs advance.
	plainDo, route, view, materialize [2]time.Duration
	plainDoN, tracedDoN               [2]int
	viewDo                            map[string]time.Duration
	viewDoN                           map[string]int

	opens    int
	openTime time.Duration

	allocs, allocBytes uint64
	allocOps           int
	// An allocation count is open from the first request of an
	// allocation-counted block until the block or the reader's stretch ends.
	allocOn      bool
	allocPending int
	ms0          runtime.MemStats

	perIndex                 map[string]engine.QueryStats
	perIndexN                map[string]int
	cacheHits, cacheMisses   int64
	deltaEntries, tombstones int64
	pending                  int64
	planners                 map[*engine.Planner]bool
	coldReads                int64
	faultExtra               time.Duration
	faultPages               int64

	spans []span
}

// span is one timed call of a traced request; spans of one request share
// its id.
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const maxSpans = 40000

func newReader(h *dsHandle, reqs []engine.Request, trace bool) *reader {
	return &reader{h: h, reqs: reqs, trace: trace, lt: readTrace{
		viewDo: map[string]time.Duration{}, viewDoN: map[string]int{},
		perIndex: map[string]engine.QueryStats{}, perIndexN: map[string]int{},
		planners: map[*engine.Planner]bool{},
	}}
}

// newestPageFile returns the page file a reopened dataset serves cold reads
// from, or nil for a dataset that has none.
func newestPageFile(dd *engine.DurableDataset) *durable.PageFile {
	pfs := dd.PageFiles()
	if len(pfs) == 0 {
		return nil
	}
	return pfs[len(pfs)-1]
}

// run issues requests until stop, given the request's index in the stream,
// reports true. A session is opened on the current epoch before the first
// request and again whenever the epoch advances or the dataset was
// reopened; the open counts in the latency of the request that needed it.
func (r *reader) run(epoch0 time.Time, stop func(i int) bool) {
	ctx := context.Background()
	var sess *engine.Session
	sessGen := -1
	defer func() {
		if sess != nil {
			sess.Close()
		}
	}()
	r.qps.begin()
	defer r.qps.stop()
	defer r.closeAllocs()
	for ; !stop(r.next); r.next++ {
		i := r.next
		if r.cycle != nil {
			if c := *r.cycle; c != r.seenCycle {
				r.seenCycle = c
				for k := range r.lat {
					r.lat[k].cut()
				}
			}
		}
		iter := time.Now()
		req := r.reqs[i%len(r.reqs)]
		k := kindIndex(req.Kind)
		mode := modePlain
		if r.trace {
			mode = (i / traceBlock) % 4
			if mode == modeAlloc && !r.lt.allocOn {
				runtime.ReadMemStats(&r.lt.ms0)
				r.lt.allocOn = true
			}
		}
		r.attempted[k]++

		dd, gen := r.h.dd, r.h.gen
		t0 := time.Now()
		var err error
		var openDur time.Duration
		if sess == nil || sessGen != gen || sess.Snapshot().Epoch() != dd.Current().Epoch() {
			if sess != nil {
				sess.Close()
			}
			sess, err = engine.Open(engine.WithDataset(dd.Dataset))
			if err != nil {
				sess = nil
				r.lat[k].fail()
				r.failed[k]++
				continue
			}
			sessGen = gen
			openDur = time.Since(t0)
			if r.trace {
				r.lt.opens++
				r.lt.openTime += openDur
				r.lt.planners[sess.Snapshot().Planner()] = true
			}
		}
		pf := newestPageFile(dd)
		var reads0 int64
		if pf != nil {
			reads0 = pf.Reads()
		}
		t1 := time.Now()
		res, err := sess.Do(ctx, req)
		doDur := time.Since(t1)
		var faults int64
		if pf != nil {
			faults = pf.Reads() - reads0
		}
		if err == nil && r.trace && mode != modeAlloc {
			r.account(sess, res, faults)
			switch mode {
			case modePlain:
				p := planOutcome(res)
				r.lt.plainDo[p] += doDur
				r.lt.plainDoN[p]++
			case modeTraced:
				r.decompose(ctx, i, sess, req, res, t1, doDur, faults, epoch0)
			}
		}
		epoch := sess.Snapshot().Epoch()

		if err != nil {
			r.lat[k].fail()
			r.failed[k]++
		} else {
			r.lat[k].add(openDur + doDur)
			if i%checkEvery == 0 && mode != modeAlloc {
				r.samples = append(r.samples, sample{epoch: epoch, req: req, at: r.lat[k].n() - 1,
					hits: append([]engine.Hit(nil), res.Hits...)})
			}
		}
		r.qps.done(1)
		if r.trace {
			if mode == modeAlloc {
				r.lt.allocPending++
				if i%traceBlock == traceBlock-1 {
					r.closeAllocs()
				}
			}
			r.lt.modeOps[mode]++
			r.lt.modeTime[mode] += time.Since(iter)
		}
	}
}

// closeAllocs adds the open allocation count, if any, to the totals.
func (r *reader) closeAllocs() {
	if !r.lt.allocOn {
		return
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	r.lt.allocs += ms1.Mallocs - r.lt.ms0.Mallocs
	r.lt.allocBytes += ms1.TotalAlloc - r.lt.ms0.TotalAlloc
	r.lt.allocOps += r.lt.allocPending
	r.lt.allocOn, r.lt.allocPending = false, 0
}

// account adds one executed request's counters to the per-layer totals.
func (r *reader) account(sess *engine.Session, res engine.Result, faults int64) {
	r.lt.perIndex[res.Index] = engine.Aggregate([]engine.QueryStats{r.lt.perIndex[res.Index], res.Stats})
	r.lt.perIndexN[res.Index]++
	r.lt.cacheHits += res.Stats.PlanCacheHits
	r.lt.cacheMisses += res.Stats.PlanCacheMisses
	r.lt.deltaEntries += res.Stats.DeltaEntries
	r.lt.tombstones += res.Stats.Tombstones
	snap := sess.Snapshot()
	r.lt.pending += int64(snap.DeltaEntries() + snap.TombstoneCount())
	r.lt.coldReads += faults
}

// planOutcome is 1 when routing the request missed the plan cache, else 0.
func planOutcome(res engine.Result) int {
	if res.Stats.PlanCacheMisses > 0 {
		return 1
	}
	return 0
}

// decompose replays one request layer by layer through public calls: the
// routing and the routed snapshot view's Do with a nil visit; the rest of
// Session.Do is the session's own materialisation. Routing replays as the
// request met it: a plan-cache hit on the snapshot's planner, or, for a miss,
// planning on a fresh planner over the snapshot's views, which probes the
// contenders as the miss did. A request that faulted pages from disk is also
// replayed warm, and the difference is charged to the faulted pages.
func (r *reader) decompose(ctx context.Context, i int, sess *engine.Session, req engine.Request,
	res engine.Result, t1 time.Time, doDur time.Duration, faults int64, epoch0 time.Time) {
	snap := sess.Snapshot()
	one := [1]engine.Request{req}
	p := planOutcome(res)
	planner := snap.Planner()
	if p == 1 {
		planner = engine.NewPlanner(snap.Indexes()...)
	}
	t2 := time.Now()
	planner.PlanKindCached(req.Kind, one[:])
	t3 := time.Now()
	view := snap.Index(res.Index)
	if view == nil {
		return
	}
	if _, err := view.Do(ctx, req, nil); err != nil {
		return
	}
	t4 := time.Now()
	route, vdo := t3.Sub(t2), t4.Sub(t3)
	r.lt.tracedDoN[p]++
	r.lt.route[p] += route
	r.lt.view[p] += vdo
	r.lt.materialize[p] += doDur - route - vdo
	r.lt.viewDo[res.Index] += vdo
	r.lt.viewDoN[res.Index]++
	if faults > 0 {
		t5 := time.Now()
		if _, err := sess.Do(ctx, req); err == nil {
			r.lt.faultExtra += doDur - time.Since(t5)
			r.lt.faultPages += faults
		}
	}
	if len(r.lt.spans)+3 <= maxSpans {
		off := func(t time.Time) int64 { return int64(t.Sub(epoch0)) }
		r.lt.spans = append(r.lt.spans,
			span{Req: i, Name: "engine.session.do", Start: off(t1), End: off(t1) + int64(doDur)},
			span{Req: i, Name: "engine.planner.route", Parent: "engine.session.do", Start: off(t2), End: off(t3)},
			span{Req: i, Name: res.Index + ".do", Parent: "engine.session.do", Start: off(t3), End: off(t4)})
	}
}

// verifyAgainst checks the reader's samples against the oracle and counts
// every mismatch as a failed request of its kind, whose latency then misses
// every percentile.
func (r *reader) verifyAgainst(initial []rtree.Item, log []batch) {
	for _, s := range verify(initial, log, r.samples) {
		k := kindIndex(s.req.Kind)
		r.failed[k]++
		r.lat[k].us[s.at] = failedLatency
	}
}
