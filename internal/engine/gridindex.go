package engine

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"neurospatial/internal/geom"
	"neurospatial/internal/grid"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

// GridOptions configures the grid engine index.
type GridOptions struct {
	// PageSize is the number of elements per data page. Default 64 (the
	// FLAT page size, so page counts are comparable).
	PageSize int
	// PerCell is the target mean number of items per grid cell. Default 8.
	PerCell float64
}

func (o GridOptions) sanitize() GridOptions {
	if o.PageSize <= 0 {
		o.PageSize = 64
	}
	if o.PerCell <= 0 {
		o.PerCell = 8
	}
	return o
}

// Grid is the thin grid-backed engine index: a uniform cell directory over
// item centers (each item registered in exactly one cell — the cell holding
// its box center), with elements laid out on pager pages in cell-major
// order so spatially close items share pages. A query inspects the cells
// overlapping the range expanded by the largest item half-extent (the
// standard center-assignment correction), reads each candidate's data page
// through the call's PageSource, and refines against the exact box.
//
// Stats mapping: IndexReads counts cells inspected (the directory is
// RAM-resident), PagesRead counts distinct data pages read, EntriesTested
// counts candidate refinements. Hits are emitted in cell-major order,
// ascending ID within a cell — a fixed, worker-count-independent order.
type Grid struct {
	opts    GridOptions
	g       *grid.Grid
	bounds  geom.AABB
	boxes   []geom.AABB
	maxHalf float64
	store   *pager.Store
	pageOf  []pager.PageID
	// coords is the struct-of-arrays sidecar of store; itemOff[id] is item
	// id's slot in it (cell-major layout position), so the cell-major
	// refinement sweep reads the coordinate runs sequentially.
	coords  *pager.Coords
	itemOff []int32
	// boxOf is the exact-geometry accessor bound once per build (a per-query
	// closure would be a hot-path allocation).
	boxOf func(int32) geom.AABB
	// home is the source Do reads through: the index's own store, or the
	// durable segment it was thawed onto. Fixed at construction.
	home pager.PageSource
	// zoneMu guards the lazily derived zone map of the current build.
	zoneMu sync.Mutex //neurospatial:lock grid.zone
	zones  []idZone
}

// NewGrid returns an unbuilt grid engine index.
func NewGrid(opts GridOptions) *Grid { return &Grid{opts: opts.sanitize()} }

// Name implements SpatialIndex.
func (gx *Grid) Name() string { return "grid" }

// Build implements SpatialIndex; the new store becomes the home source.
func (gx *Grid) Build(items []rtree.Item) error { return gx.build(items, 0, 0, 0) }

// buildFixed is Build with the cell directory's dimensions pinned instead of
// auto-sized — the durable-snapshot recovery path, which must reproduce the
// recorded build exactly even if the auto-sizing heuristic changes.
func (gx *Grid) buildFixed(items []rtree.Item, nx, ny, nz int) error {
	return gx.build(items, nx, ny, nz)
}

func (gx *Grid) build(items []rtree.Item, nx, ny, nz int) error {
	gx.g, gx.store, gx.pageOf, gx.home = nil, nil, nil, nil
	gx.coords, gx.itemOff = nil, nil
	gx.zoneMu.Lock()
	gx.zones = nil
	gx.zoneMu.Unlock()
	gx.boxes = make([]geom.AABB, len(items))
	gx.boxOf = func(id int32) geom.AABB { return gx.boxes[id] }
	gx.bounds = geom.EmptyAABB()
	gx.maxHalf = 0
	for _, it := range items {
		if it.ID < 0 || int(it.ID) >= len(items) {
			return fmt.Errorf("engine: grid item ID %d not dense in [0,%d)", it.ID, len(items))
		}
		gx.boxes[it.ID] = it.Box
		gx.bounds = gx.bounds.Union(it.Box)
		half := it.Box.Size().Scale(0.5)
		for _, h := range []float64{half.X, half.Y, half.Z} {
			if h > gx.maxHalf {
				gx.maxHalf = h
			}
		}
	}
	if len(items) == 0 {
		return nil
	}

	// Cell directory over item centers: point boxes land in exactly one
	// cell, so candidates need no per-query deduplication.
	centers := make([]geom.AABB, len(items))
	for id, b := range gx.boxes {
		c := b.Center()
		centers[id] = geom.Box(c, c)
	}
	var g *grid.Grid
	var err error
	if nx > 0 && ny > 0 && nz > 0 {
		g, err = grid.New(gx.bounds, nx, ny, nz, centers)
	} else {
		g, err = grid.NewAuto(gx.bounds, centers, gx.opts.PerCell)
	}
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	gx.g = g

	// Page layout: fill pages in cell-major order (ascending ID within a
	// cell), continuously across cell boundaries so pages stay near-full.
	builder, err := pager.NewBuilder(gx.opts.PageSize)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	gx.pageOf = make([]pager.PageID, len(items))
	gx.itemOff = make([]int32, len(items))
	slot := int32(0)
	for c := 0; c < g.NumCells(); c++ {
		for _, id := range g.CellBoxes(c) {
			gx.pageOf[id] = builder.Add(id)
			gx.itemOff[id] = slot
			slot++
		}
	}
	gx.store = builder.Build()
	gx.home = gx.store
	gx.coords = pager.BuildCoords(gx.store, gx.boxOf)
	return nil
}

// Bounds implements SpatialIndex.
func (gx *Grid) Bounds() geom.AABB { return gx.bounds }

// NumItems implements SpatialIndex.
func (gx *Grid) NumItems() int { return len(gx.boxes) }

// gridRangeScratch is the pooled per-query state of the grid range
// traversal. The cell visitor closure is bound once per pooled object (a
// per-query closure literal is a heap allocation); the read-page set is a
// stamped slice reset in O(1) instead of a fresh map.
type gridRangeScratch struct {
	gx    *Grid
	q     geom.AABB
	src   pager.PageSource
	emit  func(int32)
	stats QueryStats
	seen  []uint32
	stamp uint32
	cell  func(int, []int32)
}

var gridRangePool = sync.Pool{New: func() any {
	s := &gridRangeScratch{}
	s.cell = func(_ int, ids []int32) {
		s.stats.IndexReads++
		for _, id := range ids {
			if pg := s.gx.pageOf[id]; s.seen[pg] != s.stamp {
				s.seen[pg] = s.stamp
				s.src.ReadPage(pg)
				s.stats.PagesRead++
			}
			s.stats.EntriesTested++
			// Cell-major sweep ⇒ itemOff ascends ⇒ sequential SoA loads.
			if s.gx.coords.IntersectsAt(int(s.gx.itemOff[id]), s.q) {
				s.stats.Results++
				s.emit(id)
			}
		}
	}
	return s
}}

func getGridRange(gx *Grid, q geom.AABB, src pager.PageSource, emit func(int32)) *gridRangeScratch {
	s := gridRangePool.Get().(*gridRangeScratch)
	s.gx, s.q, s.src, s.emit = gx, q, src, emit
	s.stats = QueryStats{}
	if n := gx.store.NumPages(); cap(s.seen) < n {
		s.seen = make([]uint32, n)
	} else {
		s.seen = s.seen[:n]
	}
	s.stamp++
	if s.stamp == 0 {
		clear(s.seen)
		s.stamp = 1
	}
	return s
}

// putGridRange drops the references that would pin a source or visitor alive
// and recycles the scratch.
func putGridRange(s *gridRangeScratch) {
	s.gx, s.src, s.emit = nil, nil, nil
	gridRangePool.Put(s)
}

//neurospatial:hotpath
func (gx *Grid) queryVia(q geom.AABB, src pager.PageSource, emit func(int32)) QueryStats {
	if gx.g == nil {
		return QueryStats{}
	}
	s := getGridRange(gx, q, src, emit)
	// Deferred so a cancellation panic from a ctx-wrapped source still
	// recycles the scratch while unwinding toward catchCancel.
	defer putGridRange(s)
	gx.g.ForEachInRange(q.Expand(gx.maxHalf), s.cell)
	return s.stats
}

// zoneMap returns the per-page (min, max) item-ID zones of the current
// build, derived once from the RAM-resident page layout (not page I/O).
func (gx *Grid) zoneMap() []idZone {
	gx.zoneMu.Lock()
	defer gx.zoneMu.Unlock()
	if gx.zones == nil {
		gx.zones = storeZones(gx.store)
	}
	return gx.zones
}

// iterate implements the internal streaming capability. The ascending-ID
// kinds run the zone-map merge over the candidate pages of the expanded
// range (an item's cell is determined by its box center, so every true hit's
// page is among them); the exact refinement is the RAM-resident item box, so
// page residents outside the candidate cells are tested and rejected — the
// streaming path's EntriesTested can exceed the eager traversal's, while
// PagesRead is identical on a full drain. IndexReads counts candidate pages
// rather than cells inspected. KNN serves the bounded best-first cell scan
// eagerly.
func (gx *Grid) iterate(ctx context.Context, src pager.PageSource, req Request, after *Hit) (HitIterator, error) {
	if gx.g == nil {
		return &sliceIter{}, ctxErr(ctx)
	}
	if req.Kind == KNN {
		return knnEager(func(visit func(Hit)) (QueryStats, error) {
			return gx.doKNN(ctx, src, req.Center, req.K, visit)
		}, KNN, after)
	}
	pages := gx.PagesInRange(queryBox(req))
	ps := newPageStream(ctx, src, pages, gx.zoneMap(), after,
		acceptFor(req, gx.boxOf))
	if req.Kind == Range || req.Kind == Point {
		ps.useCoords(gx.coords, queryBox(req))
	}
	return ps, nil
}

// rangeIDs runs the native cell traversal gathering ids into the pooled
// collector, with cancellation checked at every data-page read. The caller
// owns releasing col regardless of error; the background-context path skips
// the catchCancel closure (itself a per-call allocation).
//
//neurospatial:hotpath
func (gx *Grid) rangeIDs(ctx context.Context, src pager.PageSource, q geom.AABB, col *idCollector) (QueryStats, error) {
	if !cancelable(ctx) {
		return gx.queryVia(q, src, col.visit), nil
	}
	csrc := &ctxSource{ctx: ctx, src: src}
	var st QueryStats
	//lint:ignore hotpath the catchCancel closure is the cancelable path's one per-call allocation; the background path above skips it
	err := catchCancel(func() {
		st = gx.queryVia(q, csrc, col.visit)
	})
	if err != nil {
		return QueryStats{}, err
	}
	return st, nil
}

// Do implements SpatialIndex. Range, Point and WithinDistance run as
// filtered cell traversals (with the exact Dist2Point refinement for the
// sphere kind); KNN runs a best-first scan over the cell directory: each
// non-empty cell's lower bound is the distance to the cell box expanded by
// the largest item half-extent (items are registered by center, so an
// item's box never escapes that expansion), cells are visited
// nearest-first, their candidates read through the call's source (one
// read per distinct page, as in the range path), and the scan stops when the
// next cell's bound exceeds the current k-th distance.
func (gx *Grid) Do(ctx context.Context, req Request, visit func(Hit)) (QueryStats, error) {
	return gx.do(ctx, gx.home, req, visit)
}

// do is Do reading data pages through src.
//
//neurospatial:hotpath
func (gx *Grid) do(ctx context.Context, src pager.PageSource, req Request, visit func(Hit)) (QueryStats, error) {
	if err := req.Validate(); err != nil {
		return QueryStats{}, err
	}
	if visit == nil {
		visit = func(Hit) {}
	}
	if gx.g == nil {
		return QueryStats{}, ctxErr(ctx)
	}
	if err := ctxErr(ctx); err != nil {
		return QueryStats{}, err
	}
	if req.paginated() {
		return doPaginated(ctx, gx, src, req, visit)
	}
	switch req.Kind {
	case Range, Point:
		q := req.Box
		if req.Kind == Point {
			q = geom.Box(req.Center, req.Center)
		}
		col := getIDCollector()
		defer putIDCollector(col)
		st, err := gx.rangeIDs(ctx, src, q, col)
		if err != nil {
			return QueryStats{}, err
		}
		emitIDHits(col.ids, visit)
		return st, nil
	case WithinDistance:
		col := getIDCollector()
		defer putIDCollector(col)
		st, err := gx.rangeIDs(ctx, src, geom.BoxAround(req.Center, req.Radius), col)
		if err != nil {
			return QueryStats{}, err
		}
		results, tested := withinRefine(col.ids, gx.boxOf, req.Center, req.Radius, visit)
		st.Results = results
		st.EntriesTested += tested
		return st, nil
	case KNN:
		return gx.doKNN(ctx, src, req.Center, req.K, visit)
	}
	return QueryStats{}, &RequestError{Kind: req.Kind, Field: "Kind", Reason: "is not a known query kind"}
}

// cellBound is a (lower bound, cell) pair of the grid's nearest-first scan.
type cellBound struct {
	d2 float64
	c  int
}

func cmpCellBound(a, b cellBound) int {
	switch {
	case a.d2 < b.d2:
		return -1
	case a.d2 > b.d2:
		return 1
	case a.c < b.c:
		return -1
	case a.c > b.c:
		return 1
	}
	return 0
}

var cellBoundPool = sync.Pool{New: func() any { s := make([]cellBound, 0, 64); return &s }}

// doKNN is the grid k-nearest-neighbors execution. The cell order, the
// read-page set and the top-k accumulator are pooled.
//
//neurospatial:hotpath
func (gx *Grid) doKNN(ctx context.Context, src pager.PageSource, center geom.Vec, k int, visit func(Hit)) (QueryStats, error) {
	var st QueryStats
	orderBuf := cellBoundPool.Get().(*[]cellBound)
	defer func() { *orderBuf = (*orderBuf)[:0]; cellBoundPool.Put(orderBuf) }()
	order := (*orderBuf)[:0]
	for c := 0; c < gx.g.NumCells(); c++ {
		if len(gx.g.CellBoxes(c)) == 0 {
			continue
		}
		bound := gx.g.CellBounds(c).Expand(gx.maxHalf).Dist2Point(center)
		order = append(order, cellBound{bound, c})
	}
	*orderBuf = order
	slices.SortFunc(order, cmpCellBound)
	st.IndexReads = int64(len(order))
	acc := getKNNAcc(k)
	defer putKNNAcc(acc)
	read := getPageIDScratch(gx.store.NumPages())
	defer putPageIDScratch(read)
	for _, cb := range order {
		if acc.Full() && cb.d2 > acc.Bound() {
			break
		}
		for _, id := range gx.g.CellBoxes(cb.c) {
			if pg := gx.pageOf[id]; !read.visited(int(pg)) {
				if err := ctxErr(ctx); err != nil {
					return QueryStats{}, err
				}
				src.ReadPage(pg)
				st.PagesRead++
			}
			st.EntriesTested++
			acc.Offer(Hit{ID: id, Dist2: gx.boxes[id].Dist2Point(center)})
		}
	}
	hits := acc.Hits()
	st.Results = int64(len(hits))
	for _, h := range hits {
		visit(h)
	}
	return st, nil
}

// Store implements Paged (nil before Build or when empty).
func (gx *Grid) Store() *pager.Store { return gx.store }

// NumPages implements Paged.
func (gx *Grid) NumPages() int {
	if gx.store == nil {
		return 0
	}
	return gx.store.NumPages()
}

// PageOf implements Paged.
func (gx *Grid) PageOf(id int32) pager.PageID {
	if id < 0 || int(id) >= len(gx.pageOf) {
		return pager.InvalidPage
	}
	return gx.pageOf[id]
}

// PagesInRange implements Paged: the distinct pages of candidates in the
// range, in first-touch (cell-major) order.
func (gx *Grid) PagesInRange(q geom.AABB) []pager.PageID {
	if gx.g == nil {
		return nil
	}
	var out []pager.PageID
	seen := make(map[pager.PageID]bool)
	gx.g.ForEachInRange(q.Expand(gx.maxHalf), func(_ int, ids []int32) {
		for _, id := range ids {
			if pg := gx.pageOf[id]; !seen[pg] {
				seen[pg] = true
				out = append(out, pg)
			}
		}
	})
	return out
}

// homeSrc implements contender.
func (gx *Grid) homeSrc() pager.PageSource { return gx.home }

// coldSrc implements contender.
func (gx *Grid) coldSrc() pager.PageSource { return storeSource(gx.store) }

// PagedQuery implements Paged (and prefetch.Served).
func (gx *Grid) PagedQuery(q geom.AABB, pool *pager.BufferPool, visit func(int32)) {
	gx.queryVia(q, pool, visit)
}
