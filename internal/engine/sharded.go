package engine

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
	"neurospatial/internal/shard"
)

// ShardedOptions configures the sharded scatter-gather index.
type ShardedOptions struct {
	// Shards is the spatial shard count K; <= 0 selects 4. The effective
	// count is min(K, item count) — every built shard is non-empty.
	Shards int
	// Index names the contender built per shard: "flat" (default), "rtree"
	// or "grid".
	Index string
	// Flat configures the per-shard FLAT indexes (Index == "flat").
	Flat flat.Options
	// RTreeFanout configures the per-shard R-trees (Index == "rtree");
	// <= 0 selects the default fanout.
	RTreeFanout int
	// Grid configures the per-shard grid indexes (Index == "grid").
	Grid GridOptions
	// PoolPages, when > 0, gives every shard its own pager.BufferPool of
	// that capacity over its local store — the per-shard caching regime of a
	// partitioned serving tier. Zero reads cold. A page source given for
	// one call (WithPageSource, PagedQuery, a planner probe) bypasses the
	// per-shard pools, since it owns the global page space.
	PoolPages int
}

func (o ShardedOptions) sanitize() ShardedOptions {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.Index == "" {
		o.Index = "flat"
	}
	return o
}

// shardState is one spatial shard: a sub-index over the shard's items
// re-labelled with dense local IDs, plus the maps back to global space.
type shardState struct {
	sub    pagedContender
	bounds geom.AABB
	// global[l] is the global ID of the shard's local item l (ascending —
	// local IDs are assigned in ascending global-ID order).
	global []int32
	// pageBase is the shard's first page in the global page space.
	pageBase pager.PageID
	// pool is the shard's own buffer pool (nil when PoolPages == 0).
	pool *pager.BufferPool
	// home is the source the shard reads through by default: its pool, its
	// local store, or — after OpenDataset — the durable segment of the
	// global page space.
	home pager.PageSource
}

// Sharded is the scatter-gather engine index: the item set is split into K
// spatial shards (shard.Partition, STR-style longest-axis recursion over
// item centers), each shard builds its own contender index with its own
// pager.Store (and optional per-shard BufferPool), and queries fan out only
// to the shards whose bounds intersect the range.
//
// Gather order: per query, the shards are drained in shard order and the
// merged hits are emitted in ascending global ID — Sharded's fixed native
// order, identical for any shard count, worker count, or per-shard index
// kind, and equal (as a set) to any unsharded contender's result.
//
// Stats mapping: per-shard QueryStats are summed into the unified record
// (NodesPerLevel element-wise), plus ShardsTouched — the number of shards
// the query fanned out to, the routing-quality counter of experiment E8.
//
// Storage: each shard lays its items on its own local pages; the Paged
// surface exposes one global page space via a dense remap (shard 0's pages
// first, then shard 1's, ...), with page contents translated to global IDs.
// Prefetchers and buffer pools therefore address sharded storage exactly
// like unsharded storage, which is what lets prefetch.Served walkthroughs
// (SCOUT included) run over a sharded store unchanged.
type Sharded struct {
	opts   ShardedOptions
	shards []shardState
	bounds geom.AABB
	n      int
	// shardOf[g] / local[g] locate global item g in its shard.
	shardOf []int32
	local   []int32
	// store is the global page space (per-shard pages concatenated, contents
	// translated to global IDs).
	store *pager.Store
}

// NewSharded returns an unbuilt sharded index.
func NewSharded(opts ShardedOptions) *Sharded { return &Sharded{opts: opts.sanitize()} }

// Name implements SpatialIndex.
func (s *Sharded) Name() string { return "sharded" }

// NumShards returns the number of built shards (0 before Build).
func (s *Sharded) NumShards() int { return len(s.shards) }

// ShardBounds returns the MBR of shard i's items.
func (s *Sharded) ShardBounds(i int) geom.AABB { return s.shards[i].bounds }

// ShardPools returns the per-shard buffer pools, nil entries when
// ShardedOptions.PoolPages was 0. The slice is indexed by shard.
func (s *Sharded) ShardPools() []*pager.BufferPool {
	pools := make([]*pager.BufferPool, len(s.shards))
	for i := range s.shards {
		pools[i] = s.shards[i].pool
	}
	return pools
}

// newSubIndex constructs one shard's contender.
func (o ShardedOptions) newSubIndex() (pagedContender, error) {
	switch o.Index {
	case "flat":
		return NewFlat(o.Flat), nil
	case "rtree":
		return NewRTree(o.RTreeFanout), nil
	case "grid":
		return NewGrid(o.Grid), nil
	}
	return nil, fmt.Errorf("engine: unknown sharded sub-index %q (have flat, rtree, grid)", o.Index)
}

// Build implements SpatialIndex. Every shard's home becomes its own pool
// (PoolPages > 0) or its new local store.
func (s *Sharded) Build(items []rtree.Item) error {
	s.shards, s.store = nil, nil
	s.shardOf, s.local = nil, nil
	s.bounds = geom.EmptyAABB()
	s.n = len(items)
	for _, it := range items {
		if it.ID < 0 || int(it.ID) >= len(items) {
			return fmt.Errorf("engine: sharded item ID %d not dense in [0,%d)", it.ID, len(items))
		}
	}
	if len(items) == 0 {
		return nil
	}

	parts := shard.Partition(items, s.opts.Shards)
	s.shards = make([]shardState, len(parts))
	s.shardOf = make([]int32, len(items))
	s.local = make([]int32, len(items))
	for i, part := range parts {
		sub, err := s.opts.newSubIndex()
		if err != nil {
			return err
		}
		localItems := make([]rtree.Item, len(part.Items))
		globals := make([]int32, len(part.Items))
		for l, it := range part.Items {
			localItems[l] = rtree.Item{Box: it.Box, ID: int32(l)}
			globals[l] = it.ID
			s.shardOf[it.ID] = int32(i)
			s.local[it.ID] = int32(l)
		}
		if err := sub.Build(localItems); err != nil {
			return fmt.Errorf("engine: building shard %d: %w", i, err)
		}
		s.shards[i] = shardState{sub: sub, bounds: part.Bounds, global: globals}
		s.bounds = s.bounds.Union(part.Bounds)
		if err := s.initShardHome(i); err != nil {
			return err
		}
	}
	return s.buildGlobalStore()
}

// initShardHome wires shard i's pool and home source: its own pool when
// PoolPages > 0, else its sub-index's home.
func (s *Sharded) initShardHome(i int) error {
	sh := &s.shards[i]
	sh.home = sh.sub.homeSrc()
	if s.opts.PoolPages > 0 {
		pool, err := pager.NewBufferPool(sh.sub.Store(), s.opts.PoolPages)
		if err != nil {
			return fmt.Errorf("engine: shard %d pool: %w", i, err)
		}
		sh.pool, sh.home = pool, pool
	}
	return nil
}

// buildGlobalStore lays out the global page space: per-shard pages
// concatenated densely, contents translated from local to global IDs
// (sub-page boundaries preserved exactly, so global page base+p mirrors
// shard page p).
func (s *Sharded) buildGlobalStore() error {
	capacity := 1
	for i := range s.shards {
		if c := s.shards[i].sub.Store().Capacity(); c > capacity {
			capacity = c
		}
	}
	builder, err := pager.NewBuilder(capacity)
	if err != nil {
		return err
	}
	var base pager.PageID
	for i := range s.shards {
		sh := &s.shards[i]
		sh.pageBase = base
		local := sh.sub.Store()
		for p := 0; p < local.NumPages(); p++ {
			for _, id := range local.Page(pager.PageID(p)) {
				if id >= 0 {
					builder.Add(sh.global[id])
				} else {
					builder.Add(id) // internal-node placeholder (rtree pages)
				}
			}
			builder.FlushPage()
		}
		base += pager.PageID(local.NumPages())
	}
	s.store = builder.Build()
	if s.store.NumPages() != int(base) {
		return fmt.Errorf("engine: sharded page bookkeeping diverged: %d global pages, %d shard pages",
			s.store.NumPages(), base)
	}
	return nil
}

// globalRead is one shard's view of a source over the global page space:
// every read is issued to src at the shard's global page (so src accounts
// it) and answered from the shard's local store, whose content the
// sub-index's refinement expects.
type globalRead struct {
	src   pager.PageSource
	base  pager.PageID
	local *pager.Store
}

// ReadPage implements pager.PageSource.
func (g *globalRead) ReadPage(p pager.PageID) []int32 {
	g.src.ReadPage(g.base + p)
	return g.local.Page(p)
}

// shardSources returns the per-shard sources of one call: nil — every shard
// reads its home — when src is nil, else one wrapper per shard addressing
// src in the global page space. Only this override path allocates.
func (s *Sharded) shardSources(src pager.PageSource) []pager.PageSource {
	if src == nil {
		return nil
	}
	srcs := make([]pager.PageSource, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		srcs[i] = &globalRead{src: src, base: sh.pageBase, local: sh.sub.Store()}
	}
	return srcs
}

// shardSource is shard i's entry of srcs (see shardSources).
func (s *Sharded) shardSource(srcs []pager.PageSource, i int) pager.PageSource {
	if srcs == nil {
		return s.shards[i].home
	}
	return srcs[i]
}

// Bounds implements SpatialIndex.
func (s *Sharded) Bounds() geom.AABB { return s.bounds }

// NumItems implements SpatialIndex.
func (s *Sharded) NumItems() int { return s.n }

// scatter runs one sub-request on every shard accepted by keep (in shard
// order), each reading through its entry of srcs, emitting local hits with
// their shard index, and returns the summed stats with ShardsTouched set.
// The sub-indexes observe ctx at their own page-read granularity.
func (s *Sharded) scatter(ctx context.Context, srcs []pager.PageSource, sub Request, keep func(sh *shardState) bool,
	emit func(shardIdx int, h Hit)) (QueryStats, error) {

	var subs []QueryStats
	for i := range s.shards {
		sh := &s.shards[i]
		if !keep(sh) {
			continue
		}
		st, err := sh.sub.do(ctx, s.shardSource(srcs, i), sub, func(h Hit) { emit(i, h) })
		if err != nil {
			return QueryStats{}, err
		}
		subs = append(subs, st)
	}
	st := Aggregate(subs)
	st.ShardsTouched = int64(len(subs))
	return st, nil
}

// Do implements SpatialIndex: every kind scatters to the shards that can
// contribute and gathers into the canonical order. Range and Point fan out
// to the shards whose bounds intersect the box; WithinDistance to the shards
// whose bounds pass the exact Dist2Point sphere test. KNN is a
// bound-tightening gather: shards are visited in ascending distance from the
// query point, each contributes its local top-k through the shared (Dist2,
// ID) accumulator, and the fan-out stops as soon as the next shard's bound
// exceeds the current k-th distance — ShardsTouched records how many shards
// the gather actually consulted.
func (s *Sharded) Do(ctx context.Context, req Request, visit func(Hit)) (QueryStats, error) {
	return s.do(ctx, nil, req, visit)
}

// do is Do reading through src: nil reads every shard's home, any other
// source is addressed in the global page space.
func (s *Sharded) do(ctx context.Context, src pager.PageSource, req Request, visit func(Hit)) (QueryStats, error) {
	return s.exec(ctx, src, s.shardSources(src), req, visit)
}

// exec is the execution of do: srcs are src's per-shard sources, and src
// itself serves a paginated request's stream.
//
//neurospatial:hotpath
func (s *Sharded) exec(ctx context.Context, src pager.PageSource, srcs []pager.PageSource, req Request, visit func(Hit)) (QueryStats, error) {
	if err := req.Validate(); err != nil {
		return QueryStats{}, err
	}
	if visit == nil {
		visit = func(Hit) {}
	}
	if s.n == 0 {
		return QueryStats{}, ctxErr(ctx)
	}
	if err := ctxErr(ctx); err != nil {
		return QueryStats{}, err
	}
	if req.paginated() {
		return doPaginated(ctx, s, src, req, visit)
	}
	switch req.Kind {
	case Range, Point:
		q := req.Box
		if req.Kind == Point {
			q = geom.Box(req.Center, req.Center)
		}
		var hits []Hit
		//lint:ignore hotpath the sharded gather buffers hits per query by design; ceilinged by TestDoHotPathAllocs
		st, err := s.scatter(ctx, srcs, req, func(sh *shardState) bool { return sh.bounds.Intersects(q) },
			func(i int, h Hit) { hits = append(hits, Hit{ID: s.shards[i].global[h.ID]}) })
		if err != nil {
			return QueryStats{}, err
		}
		slices.SortFunc(hits, cmpHitID)
		for _, h := range hits {
			visit(h)
		}
		return st, nil
	case WithinDistance:
		r2 := req.Radius * req.Radius
		var hits []Hit
		//lint:ignore hotpath the sharded gather buffers hits per query by design; ceilinged by TestDoHotPathAllocs
		st, err := s.scatter(ctx, srcs, req,
			func(sh *shardState) bool { return sh.bounds.Dist2Point(req.Center) <= r2 },
			func(i int, h Hit) { hits = append(hits, Hit{ID: s.shards[i].global[h.ID], Dist2: h.Dist2}) })
		if err != nil {
			return QueryStats{}, err
		}
		slices.SortFunc(hits, cmpHitID)
		for _, h := range hits {
			visit(h)
		}
		return st, nil
	case KNN:
		return s.doKNN(ctx, srcs, req, visit)
	}
	return QueryStats{}, &RequestError{Kind: req.Kind, Field: "Kind", Reason: "is not a known query kind"}
}

// doKNN is the sharded bound-tightening kNN gather.
//
//neurospatial:hotpath
func (s *Sharded) doKNN(ctx context.Context, srcs []pager.PageSource, req Request, visit func(Hit)) (QueryStats, error) {
	type shardBound struct {
		d2 float64
		i  int
	}
	//lint:ignore hotpath the shard-order buffer is O(shards) per query by design; ceilinged by TestDoHotPathAllocs
	order := make([]shardBound, len(s.shards))
	for i := range s.shards {
		order[i] = shardBound{s.shards[i].bounds.Dist2Point(req.Center), i}
	}
	slices.SortFunc(order, func(a, b shardBound) int {
		switch {
		case a.d2 < b.d2:
			return -1
		case a.d2 > b.d2:
			return 1
		}
		return a.i - b.i
	})
	acc := getKNNAcc(req.K)
	defer putKNNAcc(acc)
	var subs []QueryStats
	for _, sb := range order {
		if acc.Full() && sb.d2 > acc.Bound() {
			break
		}
		sh := &s.shards[sb.i]
		// Each shard contributes its local top-k; local IDs ascend with
		// global IDs within a shard, so the local tie-break agrees with the
		// global (Dist2, ID) order and the union provably contains the
		// canonical top-k.
		//lint:ignore hotpath one translation closure per consulted shard by design; ceilinged by TestDoHotPathAllocs
		st, err := sh.sub.do(ctx, s.shardSource(srcs, sb.i), req, func(h Hit) {
			acc.Offer(Hit{ID: sh.global[h.ID], Dist2: h.Dist2})
		})
		if err != nil {
			return QueryStats{}, err
		}
		//lint:ignore hotpath per-shard stats gather is O(shards) per query by design; ceilinged by TestDoHotPathAllocs
		subs = append(subs, st)
	}
	st := Aggregate(subs)
	st.ShardsTouched = int64(len(subs))
	hits := acc.Hits()
	st.Results = int64(len(hits))
	for _, h := range hits {
		visit(h)
	}
	return st, nil
}

// iterate implements the internal streaming capability: a lazy k-way merge
// of the kept shards' streams by global ID. Within a shard, local IDs ascend
// with global IDs, so translating each shard's ascending-ID stream yields
// ascending global IDs and the merge preserves the canonical order. Shards
// are primed lazily as the merge is pulled; a consumer that stops early
// leaves every stream's remaining pages unread. The resume position is
// translated into each shard's local ID space, so the per-shard zone maps
// prune pages below the cursor without reading them. KNN serves the bounded
// bound-tightening gather eagerly.
func (s *Sharded) iterate(ctx context.Context, src pager.PageSource, req Request, after *Hit) (HitIterator, error) {
	if s.n == 0 {
		return &sliceIter{}, ctxErr(ctx)
	}
	srcs := s.shardSources(src)
	if req.Kind == KNN {
		return knnEager(func(visit func(Hit)) (QueryStats, error) {
			return s.doKNN(ctx, srcs, req, visit)
		}, KNN, after)
	}
	keep := func(sh *shardState) bool { return sh.bounds.Intersects(queryBox(req)) }
	if req.Kind == WithinDistance {
		r2 := req.Radius * req.Radius
		keep = func(sh *shardState) bool { return sh.bounds.Dist2Point(req.Center) <= r2 }
	}
	var its []HitIterator
	for i := range s.shards {
		sh := &s.shards[i]
		if !keep(sh) {
			continue
		}
		var localAfter *Hit
		if after != nil {
			// The largest local ID whose global ID is <= after.ID (resume
			// strictly after it); none mapped means no skip in this shard.
			ub := sort.Search(len(sh.global), func(j int) bool { return sh.global[j] > after.ID })
			if ub > 0 {
				localAfter = &Hit{ID: int32(ub - 1)}
			}
		}
		it, err := sh.sub.iterate(ctx, s.shardSource(srcs, i), req, localAfter)
		if err != nil {
			for _, open := range its {
				open.Close()
			}
			return nil, err
		}
		its = append(its, &mapFilterIter{it: it, fn: func(h Hit) (Hit, bool) {
			h.ID = sh.global[h.ID]
			return h, true
		}})
	}
	return newKWayMerge(its, QueryStats{ShardsTouched: int64(len(its))}), nil
}

// Store implements Paged: the dense global page space over all shards (nil
// before Build or when empty).
func (s *Sharded) Store() *pager.Store { return s.store }

// NumPages implements Paged.
func (s *Sharded) NumPages() int {
	if s.store == nil {
		return 0
	}
	return s.store.NumPages()
}

// PageOf implements Paged: the global page holding item id.
func (s *Sharded) PageOf(id int32) pager.PageID {
	if id < 0 || int(id) >= s.n {
		return pager.InvalidPage
	}
	sh := &s.shards[s.shardOf[id]]
	p := sh.sub.PageOf(s.local[id])
	if p == pager.InvalidPage {
		return pager.InvalidPage
	}
	return sh.pageBase + p
}

// PagesInRange implements Paged: the global pages a query of box q would
// touch, shard by shard in shard order. Shard page spaces are disjoint, so
// no cross-shard deduplication is needed.
func (s *Sharded) PagesInRange(q geom.AABB) []pager.PageID {
	var out []pager.PageID
	for i := range s.shards {
		sh := &s.shards[i]
		if !sh.bounds.Intersects(q) {
			continue
		}
		for _, p := range sh.sub.PagesInRange(q) {
			out = append(out, sh.pageBase+p)
		}
	}
	return out
}

// homeSrc implements contender: nil, since every shard reads its own
// home (pool, local store or durable segment).
func (s *Sharded) homeSrc() pager.PageSource { return nil }

// coldSrc implements contender: the in-memory global store, which
// routes every shard around its pool.
func (s *Sharded) coldSrc() pager.PageSource { return storeSource(s.store) }

// PagedQuery implements Paged (and prefetch.Served): one range query reading
// through a pool over the global store, hits in ascending global ID. The
// pool travels with the call, so concurrent PagedQuery calls and queries on
// the same Sharded do not interfere.
func (s *Sharded) PagedQuery(q geom.AABB, pool *pager.BufferPool, visit func(int32)) {
	if s.n == 0 {
		return
	}
	s.do(context.Background(), pool, RangeRequest(q), func(h Hit) { visit(h.ID) })
}
