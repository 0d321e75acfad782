package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"neurospatial/internal/pager"
	"neurospatial/internal/parallel"
)

// Session is the engine's front door: every query — any Kind, any contender,
// serial or batched — enters through Open / Do / DoBatch. A session serves
// requests from one fixed SpatialIndex, through a Planner that routes each
// request by its kind's learned cost statistics, or from a pinned Dataset
// snapshot (WithDataset) — and it is where context cancellation enters the
// execution stack: Do and DoBatch accept a context.Context that the index
// traversals below observe at page-read granularity, so a canceled batch
// aborts at the next page, not the next query.
//
// A dataset session pins the snapshot current at Open time: every Do and
// DoBatch sees that epoch's consistent item set, no matter how many commits
// land afterwards. Requests route through the snapshot's own planner (or a
// fixed contender view when WithIndexName is given); Close releases the pin.
//
// A fixed-index session can also carry its own page source (WithPageSource):
// every request it serves reads the index's pages through that source
// instead of the index's home source — a buffer pool under measurement, a
// counting tap — without touching the index, so other sessions and planners
// sharing the index are unaffected.
//
// Sessions are safe for concurrent use as long as the underlying indexes
// are not rebuilt concurrently — the same contract the indexes themselves
// carry. Dataset sessions read immutable snapshots, so they are additionally
// safe against concurrent Dataset commits — that is the point of them.
type Session struct {
	index     SpatialIndex
	planner   *Planner
	dataset   *Dataset
	snap      *Snapshot
	fixedView SpatialIndex
	indexName string
	src       pager.PageSource
	workers   int
	closed    atomic.Bool
}

// SessionOption configures Open.
type SessionOption func(*Session)

// WithIndex serves every request from one fixed contender.
func WithIndex(ix SpatialIndex) SessionOption { return func(s *Session) { s.index = ix } }

// WithPageSource makes every request of a WithIndex session read the index's
// pages through src, addressed in the index's own page space (wrap
// Paged.Store in a pager.BufferPool or a pager.Counting tap). The source
// belongs to the session's requests, not to the index. Open rejects it
// without WithIndex, or when the index is not an engine index (a
// *RequestError with Field "PageSource").
func WithPageSource(src pager.PageSource) SessionOption {
	return func(s *Session) { s.src = src }
}

// WithPlanner routes each request per kind through the planner's cost model.
func WithPlanner(p *Planner) SessionOption { return func(s *Session) { s.planner = p } }

// WithDataset pins the dataset's current snapshot for the session's
// lifetime: the session serves that epoch — consistently — while later
// commits land. Call Close to release the pin. Requests route through the
// pinned snapshot's per-snapshot planner unless WithIndexName fixes a
// contender.
func WithDataset(d *Dataset) SessionOption { return func(s *Session) { s.dataset = d } }

// WithIndexName fixes the serving contender of a WithDataset session to the
// named snapshot view ("flat", "rtree", "grid", "sharded") instead of
// planner routing.
func WithIndexName(name string) SessionOption { return func(s *Session) { s.indexName = name } }

// WithWorkers sets the default DoBatch pool size used when a batch passes
// workers == 0 (the repository-wide semantics apply: 1 serial, > 1 that many
// workers, negative one per CPU).
func WithWorkers(n int) SessionOption { return func(s *Session) { s.workers = n } }

// Open opens a query session. Exactly one routing mode must be configured: a
// fixed index (WithIndex), a planner (WithPlanner), or a dataset snapshot
// (WithDataset, optionally narrowed by WithIndexName). WithPageSource
// requires WithIndex.
func Open(opts ...SessionOption) (*Session, error) {
	s := &Session{workers: 1}
	for _, opt := range opts {
		opt(s)
	}
	modes := 0
	for _, on := range []bool{s.index != nil, s.planner != nil, s.dataset != nil} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		return nil, fmt.Errorf("engine: Open takes exactly one of WithIndex, WithPlanner or WithDataset")
	}
	if s.indexName != "" && s.dataset == nil {
		return nil, fmt.Errorf("engine: WithIndexName requires WithDataset")
	}
	if s.src != nil {
		if s.index == nil {
			return nil, &RequestError{Field: "PageSource", Reason: "requires WithIndex"}
		}
		if _, ok := s.index.(contender); !ok {
			return nil, &RequestError{Field: "PageSource",
				Reason: fmt.Sprintf("cannot be served by %s, which is not an engine index", s.index.Name())}
		}
	}
	if s.planner != nil && len(s.planner.Indexes()) == 0 {
		return nil, fmt.Errorf("engine: Open: planner has no contenders")
	}
	if s.dataset != nil {
		s.snap = s.dataset.Acquire()
		if s.indexName != "" {
			if s.fixedView = s.snap.Index(s.indexName); s.fixedView == nil {
				s.snap.Release()
				return nil, fmt.Errorf("engine: Open: snapshot has no contender %q (have %v)",
					s.indexName, s.dataset.opts.Contenders)
			}
		}
	}
	return s, nil
}

// Close releases a dataset session's snapshot pin. It is idempotent — and
// safe against concurrent Close calls — and a no-op for fixed-index and
// planner sessions. A closed session must not serve further requests.
func (s *Session) Close() {
	if s.snap != nil && s.closed.CompareAndSwap(false, true) {
		s.snap.Release()
	}
}

// Snapshot returns the pinned snapshot of a WithDataset session (nil
// otherwise). Its epoch is frozen: commits after Open do not change what the
// session reads.
func (s *Session) Snapshot() *Snapshot { return s.snap }

// routingPlanner returns the planner consulted for routing, if any.
func (s *Session) routingPlanner() *Planner {
	if s.planner != nil {
		return s.planner
	}
	if s.snap != nil && s.fixedView == nil {
		return s.snap.Planner()
	}
	return nil
}

// stripPagination clears a request's pagination fields in place for routing
// and planner observation: a partial-scan cost record would poison the
// per-kind history the planner routes by, so paginated requests are routed by
// their underlying query shape and their stats are not fed back.
func stripPagination(r *Request) {
	r.Limit, r.Offset, r.Cursor = 0, 0, ""
}

// execRequest runs one request on its routed index: Do for a full result,
// the lazy streaming pipeline for a paginated one (the stream stops reading
// pages once the limit is filled; the returned cursor resumes the next
// page). A non-nil src replaces the index's home source for this request.
func execRequest(ctx context.Context, ix SpatialIndex, src pager.PageSource, req Request, emit func(Hit)) (QueryStats, Cursor, error) {
	if src == nil {
		src = homeOf(ix)
	}
	if !req.paginated() {
		st, err := doVia(ctx, ix, src, req, emit)
		return st, "", err
	}
	it, err := stream(ctx, ix, src, req)
	if err != nil {
		return QueryStats{}, "", err
	}
	defer it.Close()
	var n int
	var last Hit
	for {
		h, ok := it.Next()
		if !ok {
			break
		}
		n++
		last = h
		emit(h)
	}
	if err := it.Err(); err != nil {
		return QueryStats{}, "", err
	}
	var next Cursor
	if req.Limit > 0 && n == req.Limit {
		next = NextCursor(req.Kind, last)
	}
	return it.Stats(), next, nil
}

// route picks the serving index for requests of one kind, using the given
// same-kind requests (pagination already stripped) as the planner's
// calibration sample. Planner-backed sessions consult the per-epoch plan
// cache first — a repeated (kind, shape) skips PlanKind and its probing
// entirely. cached reports a cache hit; consulted reports whether a planner
// (and therefore the cache) was involved at all.
func (s *Session) route(kind Kind, sample []Request) (ix SpatialIndex, cached, consulted bool) {
	if s.index != nil {
		return s.index, false, false
	}
	if s.fixedView != nil {
		return s.fixedView, false, false
	}
	d, hit := s.routingPlanner().PlanKindCached(kind, sample)
	return d.Index, hit, true
}

// planCacheStamp records a routing consultation's outcome on the query record.
func planCacheStamp(st *QueryStats, cached, consulted bool) {
	if !consulted {
		return
	}
	if cached {
		st.PlanCacheHits++
	} else {
		st.PlanCacheMisses++
	}
}

// observe feeds executed stats back into the routing planner (fixed-index
// and fixed-view sessions learn nothing).
func (s *Session) observe(name string, kind Kind, sts []QueryStats) {
	if p := s.routingPlanner(); p != nil {
		p.ObserveKind(name, kind, sts)
	}
}

// Do executes one request and returns its result. The request is validated
// first (*RequestError on malformed input, never a panic); ctx cancellation
// or deadline expiry returns ctx.Err() with no hits.
func (s *Session) Do(ctx context.Context, req Request) (Result, error) {
	if err := req.Validate(); err != nil {
		return Result{}, err
	}
	// Observe cancellation before routing: planning an unprofiled kind runs
	// real calibration probes, which a dead context should not pay for.
	if err := ctxErr(ctx); err != nil {
		return Result{}, err
	}
	// The one-request calibration sample lives on the stack frame; routing
	// does not retain it.
	sample := [1]Request{req}
	stripPagination(&sample[0])
	ix, cached, consulted := s.route(req.Kind, sample[:])
	res := Result{Request: req, Index: ix.Name()}
	st, cursor, err := execRequest(ctx, ix, s.src, req, func(h Hit) { res.Hits = append(res.Hits, h) })
	if err != nil {
		return Result{}, err
	}
	planCacheStamp(&st, cached, consulted)
	res.Stats = st
	res.Cursor = cursor
	if !req.paginated() {
		// A page's partial-scan cost is not a routing signal (see
		// stripPagination); only full executions feed the planner.
		s.observe(res.Index, req.Kind, []QueryStats{st})
	}
	return res, nil
}

// DoBatch executes a batch of requests — kinds may be mixed freely — on the
// shared deterministic executor and returns one Result per request, in
// request order. Routing is per kind: a planner-backed session plans each
// distinct kind once for the batch (probing any unprofiled contender with
// the kind's first requests), so a mixed workload can serve its range scans
// and its kNN gathers from different contenders.
//
// workers follows the repository-wide semantics; 0 selects the session's
// default. The output is deterministic and all-or-nothing: on success the
// results are identical — hit for hit, stat for stat — for any worker count;
// on cancellation DoBatch stops before completing the batch (in-flight
// requests abort at their next page read) and returns (nil, ctx.Err()).
func (s *Session) DoBatch(ctx context.Context, reqs []Request, workers int) ([]Result, error) {
	for i := range reqs {
		if err := reqs[i].Validate(); err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
	}
	// Observe cancellation before routing: planning unprofiled kinds runs
	// real calibration probes, which a dead context should not pay for.
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if workers == 0 {
		workers = s.workers
	}

	// Route once per distinct kind, in first-appearance order (deterministic
	// probing: the kind's own requests are its calibration sample). Kinds are
	// a closed enum, so the per-kind state lives in fixed arrays indexed by
	// Kind — no per-batch maps — and the normalized (pagination-stripped)
	// sample copies share one pooled scratch slice, grouped contiguously by
	// kind in batch order.
	sc := getBatchScratch(len(reqs))
	defer putBatchScratch(sc)
	var counts, off [numKinds]int
	for i := range reqs {
		counts[reqs[i].Kind]++
	}
	for k, lo := 1, 0; k < numKinds; k++ {
		off[k] = lo
		lo += counts[k]
	}
	var fill [numKinds]int
	var kindsArr [numKinds]Kind
	var firstOf [numKinds]int
	nk := 0
	for i := range reqs {
		k := reqs[i].Kind
		if fill[k] == 0 {
			kindsArr[nk] = k
			nk++
			firstOf[k] = i
		}
		at := off[k] + fill[k]
		sc.reqs[at] = reqs[i]
		stripPagination(&sc.reqs[at])
		fill[k]++
	}
	kinds := kindsArr[:nk]
	var routed [numKinds]SpatialIndex
	var cacheHit, consulted [numKinds]bool
	for _, k := range kinds {
		routed[k], cacheHit[k], consulted[k] = s.route(k, sc.reqs[off[k]:off[k]+counts[k]])
	}

	results := make([]Result, len(reqs))
	for i := range reqs {
		results[i] = Result{Request: reqs[i], Index: routed[reqs[i].Kind].Name()}
	}
	// sc.cursors is written per slot on the worker goroutines and read only
	// after BatchCtx joins — distinct elements, no sharing.
	cursors := sc.cursors
	sts, err := parallel.BatchCtx(ctx, workers, len(reqs),
		func(qi int, emit func(Hit)) (QueryStats, error) {
			// Defense in depth for the cancellation machinery: a canceledRead
			// panic must be recovered on the goroutine that raised it (the
			// worker running this slot), and every Do implementation installs
			// its own catchCancel around its ctxSource reads. This outer
			// catch guards any future read path that forgets to — without
			// it, an escaped panic on a worker goroutine would kill the
			// process, since the caller's recover cannot see it.
			var st QueryStats
			var doErr error
			if cerr := catchCancel(func() {
				st, cursors[qi], doErr = execRequest(ctx, routed[reqs[qi].Kind], s.src, reqs[qi], emit)
			}); cerr != nil {
				return QueryStats{}, cerr
			}
			return st, doErr
		},
		func(qi int, h Hit) { results[qi].Hits = append(results[qi].Hits, h) })
	if err != nil {
		return nil, err
	}
	for i := range results {
		results[i].Stats = sts[i]
		results[i].Cursor = cursors[i]
	}
	// Record each kind's one routing consultation on the kind's first
	// request, so aggregated batch stats count exactly the consultations.
	for _, k := range kinds {
		planCacheStamp(&results[firstOf[k]].Stats, cacheHit[k], consulted[k])
	}
	if s.routingPlanner() != nil {
		for _, k := range kinds {
			var kindStats []QueryStats
			for i := range reqs {
				// Partial-scan pages are not routing signals (see
				// stripPagination); only full executions feed the planner.
				if reqs[i].Kind == k && !reqs[i].paginated() {
					kindStats = append(kindStats, sts[i])
				}
			}
			s.observe(routed[k].Name(), k, kindStats)
		}
	}
	return results, nil
}

// numKinds sizes the per-kind routing arrays of DoBatch: the Kind enum is
// closed (KindInvalid plus the four query kinds), and every request was
// validated before routing, so Kind values index the arrays directly.
const numKinds = 5

// batchScratch is DoBatch's pooled per-call scratch: the normalized
// (pagination-stripped, kind-grouped) copy of the batch's requests, and the
// per-slot cursor table the workers fill. Pooling them makes a batch's fixed
// overhead independent of batch size in steady state.
type batchScratch struct {
	reqs    []Request
	cursors []Cursor
}

var batchScratchPool = sync.Pool{New: func() any { return &batchScratch{} }}

// getBatchScratch returns scratch with both tables sized to n; recycled
// cursor entries are cleared (a stale cursor would leak into a result).
func getBatchScratch(n int) *batchScratch {
	sc := batchScratchPool.Get().(*batchScratch)
	if cap(sc.reqs) < n {
		sc.reqs = make([]Request, n)
	} else {
		sc.reqs = sc.reqs[:n]
	}
	if cap(sc.cursors) < n {
		sc.cursors = make([]Cursor, n)
	} else {
		sc.cursors = sc.cursors[:n]
		clear(sc.cursors)
	}
	return sc
}

// putBatchScratch clears and recycles the scratch; entries are zeroed so the
// pool does not retain the batch's request strings and cursor payloads.
func putBatchScratch(sc *batchScratch) {
	clear(sc.reqs)
	clear(sc.cursors)
	sc.reqs, sc.cursors = sc.reqs[:0], sc.cursors[:0]
	batchScratchPool.Put(sc)
}

// Index returns the fixed contender of a WithIndex session, or the fixed
// snapshot view of a WithDataset+WithIndexName session (nil for
// planner-routed sessions).
func (s *Session) Index() SpatialIndex {
	if s.index != nil {
		return s.index
	}
	return s.fixedView
}

// Planner returns the planner that routes this session's requests: the
// WithPlanner planner, or a dataset session's per-snapshot planner (nil for
// fixed-index and fixed-view sessions).
func (s *Session) Planner() *Planner { return s.routingPlanner() }
