package engine

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

// Flat adapts flat.Index to the engine layer. Stats mapping: IndexReads are
// the seed-tree node accesses (the page-level R-tree is RAM-resident),
// PagesRead are the crawl's data-page reads — exactly the split the demo's
// statistics panel reports for FLAT.
type Flat struct {
	opts flat.Options
	idx  *flat.Index
	// boxOf is the exact-geometry accessor bound once per build (a per-query
	// method value would be a hot-path allocation).
	boxOf func(int32) geom.AABB
	// home is the source Do reads through: the index's own store, or the
	// durable segment it was thawed onto. Fixed at construction.
	home pager.PageSource
	// zoneMu guards the lazily derived zone map of the current build.
	zoneMu sync.Mutex //neurospatial:lock flat.zone
	zones  []idZone
}

// NewFlat returns an unbuilt FLAT engine index with the given options.
func NewFlat(opts flat.Options) *Flat { return &Flat{opts: opts} }

// WrapFlat adapts an already-built flat.Index.
func WrapFlat(idx *flat.Index) *Flat {
	return &Flat{opts: idx.Options(), idx: idx, boxOf: idx.ItemBox, home: idx.Store()}
}

// Inner returns the wrapped flat.Index (nil before Build).
func (f *Flat) Inner() *flat.Index { return f.idx }

// Name implements SpatialIndex.
func (f *Flat) Name() string { return "flat" }

// Build implements SpatialIndex; the new store becomes the home source.
func (f *Flat) Build(items []rtree.Item) error {
	idx, err := flat.Build(items, f.opts)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	f.idx, f.home, f.boxOf = idx, idx.Store(), idx.ItemBox
	f.zoneMu.Lock()
	f.zones = nil
	f.zoneMu.Unlock()
	return nil
}

// zoneMap returns the per-page (min, max) item-ID zones of the current
// build, derived once from the RAM-resident page layout (like the page
// MBRs; not page I/O).
func (f *Flat) zoneMap() []idZone {
	f.zoneMu.Lock()
	defer f.zoneMu.Unlock()
	if f.zones == nil {
		f.zones = storeZones(f.idx.Store())
	}
	return f.zones
}

// iterate implements the internal streaming capability. The ascending-ID
// kinds run the zone-map merge over the seed tree's candidate pages (every
// true hit lies on a page whose MBR intersects the query box, so the
// candidate set is complete; the exact refinement is the RAM-resident item
// box). The stats mapping differs from the eager path in the RAM-side
// counters only: IndexReads counts candidate pages rather than seed-tree
// node accesses, and Reseeds stays 0 (the zone-map order replaces the
// crawl); PagesRead accounting is identical on a full drain. KNN serves the
// bounded best-first scan eagerly.
func (f *Flat) iterate(ctx context.Context, src pager.PageSource, req Request, after *Hit) (HitIterator, error) {
	if f.idx == nil {
		return &sliceIter{}, ctxErr(ctx)
	}
	if req.Kind == KNN {
		return knnEager(func(visit func(Hit)) (QueryStats, error) {
			return f.doKNN(ctx, src, req.Center, req.K, visit)
		}, KNN, after)
	}
	pages := f.idx.PagesInRange(queryBox(req))
	ps := newPageStream(ctx, src, pages, f.zoneMap(), after,
		acceptFor(req, f.boxOf))
	if req.Kind == Range || req.Kind == Point {
		ps.useCoords(f.idx.Coords(), queryBox(req))
	}
	return ps, nil
}

// Bounds implements SpatialIndex.
func (f *Flat) Bounds() geom.AABB {
	if f.idx == nil {
		return geom.EmptyAABB()
	}
	return f.idx.Bounds()
}

// NumItems implements SpatialIndex.
func (f *Flat) NumItems() int {
	if f.idx == nil {
		return 0
	}
	return f.idx.NumItems()
}

// fromFlat maps FLAT's native stats onto the unified record.
func fromFlat(s flat.QueryStats) QueryStats {
	return QueryStats{
		IndexReads:    s.SeedNodeAccesses,
		PagesRead:     s.PagesRead,
		EntriesTested: s.EntriesTested,
		Results:       s.Results,
		Reseeds:       s.Reseeds,
	}
}

// rangeIDs runs the native range traversal (seed + crawl), gathering ids into
// the pooled collector, with cancellation checked at every data-page read.
// The caller owns releasing col regardless of error. The background-context
// path skips the catchCancel/ctxSource machinery entirely — no panic is
// possible without a ctx-wrapped source, and the skipped closure is itself a
// per-call allocation the zero-alloc path cannot afford.
//
//neurospatial:hotpath
func (f *Flat) rangeIDs(ctx context.Context, src pager.PageSource, q geom.AABB, col *idCollector) (QueryStats, error) {
	if !cancelable(ctx) {
		return fromFlat(f.idx.QueryVia(q, src, col.visit)), nil
	}
	csrc := &ctxSource{ctx: ctx, src: src}
	var st QueryStats
	//lint:ignore hotpath the catchCancel closure is the cancelable path's one per-call allocation; the background path above skips it
	err := catchCancel(func() {
		st = fromFlat(f.idx.QueryVia(q, csrc, col.visit))
	})
	if err != nil {
		return QueryStats{}, err
	}
	return st, nil
}

// Do implements SpatialIndex. Range, Point and WithinDistance execute as
// seed-and-crawl traversals (Point stabs with a degenerate box,
// WithinDistance crawls the sphere's bounding box and refines with the exact
// Dist2Point test); KNN runs a best-first scan over the page directory:
// page MBRs are ordered by squared distance to the center (those bound
// evaluations are the RAM-resident IndexReads of the record), pages are read
// through the call's source nearest-first, and the scan stops as soon as
// the next page's lower bound exceeds the current k-th distance.
func (f *Flat) Do(ctx context.Context, req Request, visit func(Hit)) (QueryStats, error) {
	return f.do(ctx, f.home, req, visit)
}

// do is Do reading data pages through src.
//
//neurospatial:hotpath
func (f *Flat) do(ctx context.Context, src pager.PageSource, req Request, visit func(Hit)) (QueryStats, error) {
	if err := req.Validate(); err != nil {
		return QueryStats{}, err
	}
	if visit == nil {
		visit = func(Hit) {}
	}
	if f.idx == nil {
		return QueryStats{}, ctxErr(ctx)
	}
	if err := ctxErr(ctx); err != nil {
		return QueryStats{}, err
	}
	if req.paginated() {
		return doPaginated(ctx, f, src, req, visit)
	}
	switch req.Kind {
	case Range, Point:
		q := req.Box
		if req.Kind == Point {
			q = geom.Box(req.Center, req.Center)
		}
		col := getIDCollector()
		defer putIDCollector(col)
		st, err := f.rangeIDs(ctx, src, q, col)
		if err != nil {
			return QueryStats{}, err
		}
		emitIDHits(col.ids, visit)
		return st, nil
	case WithinDistance:
		col := getIDCollector()
		defer putIDCollector(col)
		st, err := f.rangeIDs(ctx, src, geom.BoxAround(req.Center, req.Radius), col)
		if err != nil {
			return QueryStats{}, err
		}
		results, tested := withinRefine(col.ids, f.boxOf, req.Center, req.Radius, visit)
		st.Results = results
		st.EntriesTested += tested
		return st, nil
	case KNN:
		return f.doKNN(ctx, src, req.Center, req.K, visit)
	}
	return QueryStats{}, &RequestError{Kind: req.Kind, Field: "Kind", Reason: "is not a known query kind"}
}

// doKNN is the FLAT k-nearest-neighbors execution. The order buffer and the
// top-k accumulator are pooled; hits are emitted by value before release.
//
//neurospatial:hotpath
func (f *Flat) doKNN(ctx context.Context, src pager.PageSource, center geom.Vec, k int, visit func(Hit)) (QueryStats, error) {
	var st QueryStats
	np := f.idx.NumPages()
	orderBuf := getPageBounds()
	defer putPageBounds(orderBuf)
	order := *orderBuf
	for p := 0; p < np; p++ {
		order = append(order, pageBound{f.idx.PageBox(pager.PageID(p)).Dist2Point(center), pager.PageID(p)})
	}
	*orderBuf = order
	slices.SortFunc(order, cmpPageBound)
	st.IndexReads = int64(np)
	acc := getKNNAcc(k)
	defer putKNNAcc(acc)
	for _, pb := range order {
		if acc.Full() && pb.d2 > acc.Bound() {
			break
		}
		if err := ctxErr(ctx); err != nil {
			return QueryStats{}, err
		}
		st.PagesRead++
		for _, id := range src.ReadPage(pb.p) {
			st.EntriesTested++
			acc.Offer(Hit{ID: id, Dist2: f.idx.ItemBox(id).Dist2Point(center)})
		}
	}
	hits := acc.Hits()
	st.Results = int64(len(hits))
	for _, h := range hits {
		visit(h)
	}
	return st, nil
}

// Store implements Paged (nil before Build).
func (f *Flat) Store() *pager.Store {
	if f.idx == nil {
		return nil
	}
	return f.idx.Store()
}

// NumPages implements Paged.
func (f *Flat) NumPages() int {
	if f.idx == nil {
		return 0
	}
	return f.idx.NumPages()
}

// PageOf implements Paged.
func (f *Flat) PageOf(id int32) pager.PageID {
	if f.idx == nil || id < 0 || int(id) >= f.idx.NumItems() {
		return pager.InvalidPage
	}
	return f.idx.PageOf(id)
}

// PagesInRange implements Paged via the seed tree.
func (f *Flat) PagesInRange(q geom.AABB) []pager.PageID {
	if f.idx == nil {
		return nil
	}
	return f.idx.PagesInRange(q)
}

// homeSrc implements contender.
func (f *Flat) homeSrc() pager.PageSource { return f.home }

// coldSrc implements contender.
func (f *Flat) coldSrc() pager.PageSource { return storeSource(f.Store()) }

// PagedQuery implements Paged (and prefetch.Served).
func (f *Flat) PagedQuery(q geom.AABB, pool *pager.BufferPool, visit func(int32)) {
	if f.idx == nil {
		return
	}
	f.idx.Query(q, pool, visit)
}
