package engine

import (
	"context"
	"fmt"
	"sync"

	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

// RTree adapts an STR-bulk-loaded rtree.Tree to the engine layer, with its
// nodes laid onto simulated disk pages (rtree.PagedTree, one node per page —
// the classic disk R-tree layout). Stats mapping: every node access is a
// page read, so PagesRead is the tree's total node accesses, IndexReads is 0
// and NodesPerLevel carries the per-level breakdown the demo's panel shows.
type RTree struct {
	fanout int
	tree   *rtree.Tree
	paged  *rtree.PagedTree
	// home is the source Do reads node pages through: the paged layout's
	// own store, or the durable segment the tree was thawed onto. Fixed at
	// construction.
	home     pager.PageSource
	elemPage []pager.PageID // item ID -> leaf page
	boxes    []geom.AABB    // item ID -> MBR (exact-distance refinement)
	// boxOf is the exact-geometry accessor bound once per paging (a
	// per-query closure would be a hot-path allocation).
	boxOf func(int32) geom.AABB
	// coords is the struct-of-arrays sidecar of the node-page store: leaf
	// pages' item coordinates as contiguous per-axis runs (internal-node
	// placeholder entries get empty boxes), scanned sequentially by the
	// streaming leaf refinement.
	coords *pager.Coords
	// nodes is the RAM-resident node directory built at paging time: per
	// node its page, MBR, level and (min, max) item-ID zone — what the
	// streaming descent orders subtrees by. nodes[0] is the root.
	nodes []rnode
}

// rnode is one node of the RAM directory (see RTree.nodes).
type rnode struct {
	page  pager.PageID
	box   geom.AABB
	level int
	leaf  bool
	minID int32
	maxID int32
	kids  []int32 // indexes into RTree.nodes
}

// NewRTree returns an unbuilt R-tree engine index with the given fanout
// (<= 0 selects rtree.DefaultFanout).
func NewRTree(fanout int) *RTree {
	if fanout <= 0 {
		fanout = rtree.DefaultFanout
	}
	return &RTree{fanout: fanout}
}

// WrapRTree adapts an already-built tree (STR- or insertion-built). The tree
// is paged at wrap time and must not be mutated afterwards.
func WrapRTree(t *rtree.Tree) (*RTree, error) {
	r := &RTree{fanout: t.Fanout(), tree: t}
	if err := r.page(); err != nil {
		return nil, err
	}
	return r, nil
}

// Inner returns the wrapped rtree.Tree (nil before Build).
func (r *RTree) Inner() *rtree.Tree { return r.tree }

// PagedTree returns the node-per-page layout (nil for an empty tree).
func (r *RTree) PagedTree() *rtree.PagedTree { return r.paged }

// Name implements SpatialIndex.
func (r *RTree) Name() string { return "rtree" }

// Build implements SpatialIndex; the new node-page store becomes the home
// source.
func (r *RTree) Build(items []rtree.Item) error {
	t, err := rtree.STR(items, r.fanout)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	r.tree = t
	return r.page()
}

// page lays the tree's nodes onto pages and indexes each item's leaf page
// and MBR.
func (r *RTree) page() error {
	r.paged, r.home, r.elemPage, r.boxes, r.nodes = nil, nil, nil, nil, nil
	if r.tree.Size() == 0 {
		return nil
	}
	p, err := rtree.NewPaged(r.tree)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	r.paged, r.home = p, p.Store()
	r.elemPage = make([]pager.PageID, r.tree.Size())
	r.boxes = make([]geom.AABB, r.tree.Size())
	r.boxOf = func(id int32) geom.AABB { return r.boxes[id] }
	r.nodes = nil
	root, _ := r.tree.Root()
	var walk func(v rtree.NodeView) int32
	walk = func(v rtree.NodeView) int32 {
		ni := int32(len(r.nodes))
		r.nodes = append(r.nodes, rnode{})
		n := rnode{page: p.PageOf(v), box: v.Box(), level: v.Level(), leaf: v.IsLeaf(),
			minID: int32(len(r.elemPage)), maxID: -1}
		if v.IsLeaf() {
			for _, it := range v.Items() {
				if int(it.ID) < len(r.elemPage) {
					r.elemPage[it.ID] = n.page
					r.boxes[it.ID] = it.Box
				}
				if it.ID < n.minID {
					n.minID = it.ID
				}
				if it.ID > n.maxID {
					n.maxID = it.ID
				}
			}
		} else {
			n.kids = make([]int32, 0, v.NumChildren())
			for i := 0; i < v.NumChildren(); i++ {
				ci := walk(v.Child(i))
				n.kids = append(n.kids, ci)
				if c := r.nodes[ci]; c.maxID >= c.minID {
					if c.minID < n.minID {
						n.minID = c.minID
					}
					if c.maxID > n.maxID {
						n.maxID = c.maxID
					}
				}
			}
		}
		r.nodes[ni] = n
		return ni
	}
	walk(root)
	// Guarded accessor: WrapRTree tolerates non-dense item IDs on the
	// Query-only surface; out-of-range IDs get empty (never-intersecting)
	// sidecar slots instead of panicking the build.
	r.coords = pager.BuildCoords(r.paged.Store(), func(id int32) geom.AABB {
		if int(id) >= len(r.boxes) {
			return geom.EmptyAABB()
		}
		return r.boxes[id]
	})
	return nil
}

// Bounds implements SpatialIndex.
func (r *RTree) Bounds() geom.AABB {
	if r.tree == nil {
		return geom.EmptyAABB()
	}
	return r.tree.Bounds()
}

// NumItems implements SpatialIndex.
func (r *RTree) NumItems() int {
	if r.tree == nil {
		return 0
	}
	return r.tree.Size()
}

// fromRTree maps the tree's native stats onto the unified record.
func fromRTree(s rtree.QueryStats) QueryStats {
	return QueryStats{
		PagesRead:     s.NodeAccesses(),
		EntriesTested: s.EntriesTested,
		Results:       s.Results,
		LevelNodes:    s.LevelNodes,
		Levels:        s.Levels,
	}
}

// rangeIDs runs the native descent collecting ids. When src is anything
// but the in-memory node store, or the context is cancelable, the descent
// reads node pages through the paged layout (the traversal — and therefore
// the stats record — is identical to the unpaged one), so every node read
// reaches src and cancellation is checked at each.
//
//neurospatial:hotpath
func (r *RTree) rangeIDs(ctx context.Context, src pager.PageSource, q geom.AABB, col *idCollector) (QueryStats, error) {
	if r.paged != nil && (src != r.coldSrc() || cancelable(ctx)) {
		csrc := wrapCtxSource(ctx, src)
		var st QueryStats
		//lint:ignore hotpath the catchCancel closure is the cancelable path's one per-call allocation; the unpaged path below skips it
		err := catchCancel(func() {
			st = fromRTree(r.paged.QueryVia(q, csrc, col.visitItem))
		})
		if err != nil {
			return QueryStats{}, err
		}
		return st, nil
	}
	return fromRTree(r.tree.Query(q, col.visitItem)), nil
}

// Do implements SpatialIndex. Range, Point and WithinDistance run as
// filtered descents (Point stabs with a degenerate box, WithinDistance
// descends the sphere's bounding box and refines with the exact Dist2Point
// test). KNN wraps the tree's native best-first search (rtree.Tree.KNN) and
// surfaces its native statistics in the unified record — NodesPerLevel
// carries the per-level access breakdown and PagesRead its total under the
// one-node-per-page convention. Boundary ties are resolved to the canonical
// (Dist2, ID) order by widening the native search until the (k+1)-st
// distance strictly exceeds the k-th (ties are measure-zero on real
// coordinates, so the first probe almost always suffices); the record is the
// widest search executed. Cancellation is checked between native calls (the
// KNN traversal is RAM-resident — it performs no page reads to check at).
func (r *RTree) Do(ctx context.Context, req Request, visit func(Hit)) (QueryStats, error) {
	return r.do(ctx, r.home, req, visit)
}

// do is Do reading node pages through src.
//
//neurospatial:hotpath
func (r *RTree) do(ctx context.Context, src pager.PageSource, req Request, visit func(Hit)) (QueryStats, error) {
	if err := req.Validate(); err != nil {
		return QueryStats{}, err
	}
	if visit == nil {
		visit = func(Hit) {}
	}
	if r.tree == nil || r.tree.Size() == 0 {
		return QueryStats{}, ctxErr(ctx)
	}
	if err := ctxErr(ctx); err != nil {
		return QueryStats{}, err
	}
	if req.paginated() {
		return doPaginated(ctx, r, src, req, visit)
	}
	switch req.Kind {
	case Range, Point:
		q := req.Box
		if req.Kind == Point {
			q = geom.Box(req.Center, req.Center)
		}
		col := getIDCollector()
		defer putIDCollector(col)
		st, err := r.rangeIDs(ctx, src, q, col)
		if err != nil {
			return QueryStats{}, err
		}
		emitIDHits(col.ids, visit)
		return st, nil
	case WithinDistance:
		col := getIDCollector()
		defer putIDCollector(col)
		st, err := r.rangeIDs(ctx, src, geom.BoxAround(req.Center, req.Radius), col)
		if err != nil {
			return QueryStats{}, err
		}
		results, tested := withinRefine(col.ids, r.boxOf, req.Center, req.Radius, visit)
		st.Results = results
		st.EntriesTested += tested
		return st, nil
	case KNN:
		return r.doKNN(ctx, req.Center, req.K, visit)
	}
	return QueryStats{}, &RequestError{Kind: req.Kind, Field: "Kind", Reason: "is not a known query kind"}
}

// doKNN wraps rtree.Tree.KNN with the canonical tie resolution.
//
//neurospatial:hotpath
func (r *RTree) doKNN(ctx context.Context, center geom.Vec, k int, visit func(Hit)) (QueryStats, error) {
	size := r.tree.Size()
	// Probe one past k: when the (k+1)-st distance strictly exceeds the k-th,
	// the candidate set provably contains every item tied with the k-th and
	// the canonical top-k is decided. Otherwise widen geometrically.
	kk := k + 1
	if kk > size || kk < 0 { // kk < 0: k+1 overflowed on an absurd K
		kk = size
	}
	items, nst := r.tree.KNN(center, kk)
	for len(items) == kk && kk < size && kk > k {
		lastD := items[len(items)-1].Box.Dist2Point(center)
		kthD := items[k-1].Box.Dist2Point(center)
		if lastD > kthD {
			break
		}
		if err := ctxErr(ctx); err != nil {
			return QueryStats{}, err
		}
		kk *= 2
		if kk > size || kk < 0 {
			kk = size
		}
		items, nst = r.tree.KNN(center, kk)
	}
	if err := ctxErr(ctx); err != nil {
		return QueryStats{}, err
	}
	acc := getKNNAcc(k)
	defer putKNNAcc(acc)
	for _, it := range items {
		acc.Offer(Hit{ID: it.ID, Dist2: it.Box.Dist2Point(center)})
	}
	hits := acc.Hits()
	st := fromRTree(nst)
	st.Results = int64(len(hits))
	for _, h := range hits {
		visit(h)
	}
	return st, nil
}

// iterate implements the internal streaming capability: a best-first
// descent over the RAM node directory ordered by subtree min-ID. A node's
// page is read (one node per page — the same accounting as the eager
// descent) when it becomes the unvisited subtree with the least possible ID;
// leaf residents are refined against the RAM item boxes and buffered until
// no unread subtree can precede them. A full drain visits exactly the nodes
// the eager descent visits; under a Limit the remaining subtrees are never
// read. Subtrees wholly at or before the resume position are pruned by
// their ID zone without reading. KNN serves the bounded native best-first
// search eagerly.
func (r *RTree) iterate(ctx context.Context, src pager.PageSource, req Request, after *Hit) (HitIterator, error) {
	if r.tree == nil || r.tree.Size() == 0 {
		return &sliceIter{}, ctxErr(ctx)
	}
	if req.Kind == KNN {
		return knnEager(func(visit func(Hit)) (QueryStats, error) {
			return r.doKNN(ctx, req.Center, req.K, visit)
		}, KNN, after)
	}
	it := &rtreeStream{r: r, ctx: ctx, src: src,
		accept: acceptFor(req, r.boxOf), q: queryBox(req),
		frontierBox: getNodeHeapBox(), pendingBox: getHitHeapBox()}
	it.frontier = *it.frontierBox
	it.pending = *it.pendingBox
	// The box kinds refine leaf residents against the SoA sidecar
	// sequentially; WithinDistance needs the exact-distance accept stage.
	it.boxKind = req.Kind == Range || req.Kind == Point
	if after != nil {
		it.after = after.ID
	} else {
		it.after = -1
	}
	root := r.nodes[0]
	if root.box.Intersects(it.q) && root.maxID > it.after {
		it.frontier.push(r, 0)
	}
	return it, nil
}

// rtreeStream is the lazy min-ID best-first descent (see RTree.iterate).
type rtreeStream struct {
	r        *RTree
	ctx      context.Context
	src      pager.PageSource
	q        geom.AABB
	accept   func(id int32, st *QueryStats) (Hit, bool)
	after    int32 // resume position; -1 = none
	boxKind  bool  // Range/Point: leaf refinement scans the SoA sidecar
	frontier nodeHeap
	pending  hitHeap
	// frontierBox/pendingBox are the pool boxes the heap slices came from;
	// Close writes the (possibly grown) slices back and recycles them.
	frontierBox *nodeHeap
	pendingBox  *hitHeap
	st          QueryStats
	err         error
}

//neurospatial:hotpath
func (s *rtreeStream) Next() (Hit, bool) {
	for {
		if s.err != nil {
			return Hit{}, false
		}
		if len(s.pending) > 0 &&
			(len(s.frontier) == 0 || s.pending[0].ID < s.r.nodes[s.frontier[0]].minID) {
			return s.pending.pop(), true
		}
		if len(s.frontier) == 0 {
			return Hit{}, false
		}
		if err := ctxErr(s.ctx); err != nil {
			s.err = err
			return Hit{}, false
		}
		ni := s.frontier.pop(s.r)
		n := s.r.nodes[ni]
		// Reading the node is one page read, internal or leaf — the
		// one-node-per-page convention of the eager descent.
		ids := s.src.ReadPage(n.page)
		s.st.PagesRead++
		s.st.addNode(n.level)
		if n.leaf {
			if s.boxKind {
				base := s.r.coords.PageOffset(n.page)
				for i, id := range ids {
					if id < 0 || id <= s.after {
						continue
					}
					s.st.EntriesTested++
					if s.r.coords.IntersectsAt(base+i, s.q) {
						s.st.Results++
						s.pending.push(Hit{ID: id})
					}
				}
				continue
			}
			for _, id := range ids {
				if id < 0 || id <= s.after {
					continue
				}
				if h, ok := s.accept(id, &s.st); ok {
					s.st.Results++
					s.pending.push(h)
				}
			}
			continue
		}
		for _, ci := range n.kids {
			c := s.r.nodes[ci]
			s.st.EntriesTested++
			if c.maxID < c.minID || c.maxID <= s.after {
				continue
			}
			if c.box.Intersects(s.q) {
				s.frontier.push(s.r, ci)
			}
		}
	}
}

func (s *rtreeStream) Err() error        { return s.err }
func (s *rtreeStream) Stats() QueryStats { return s.st }

// Close recycles the pooled heap slices. Idempotent; Stats stays valid, and
// a Next after Close sees two empty heaps and reports exhaustion.
func (s *rtreeStream) Close() {
	if s.frontierBox != nil {
		*s.frontierBox = s.frontier[:0]
		nodeHeapPool.Put(s.frontierBox)
		s.frontierBox, s.frontier = nil, nil
	}
	if s.pendingBox != nil {
		*s.pendingBox = s.pending[:0]
		hitHeapPool.Put(s.pendingBox)
		s.pendingBox, s.pending = nil, nil
	}
}

// nodeHeap is a min-heap of RTree.nodes indexes ordered by subtree min-ID
// (ties by page for determinism).
type nodeHeap []int32

var nodeHeapPool = sync.Pool{New: func() any {
	h := nodeHeap(make([]int32, 0, 64))
	return &h
}}

// getNodeHeapBox returns a pool box holding an empty heap slice.
func getNodeHeapBox() *nodeHeap {
	p := nodeHeapPool.Get().(*nodeHeap)
	*p = (*p)[:0]
	return p
}

func (h *nodeHeap) less(r *RTree, a, b int32) bool {
	na, nb := r.nodes[a], r.nodes[b]
	if na.minID != nb.minID {
		return na.minID < nb.minID
	}
	return na.page < nb.page
}

func (h *nodeHeap) push(r *RTree, x int32) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(r, s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *nodeHeap) pop(r *RTree) int32 {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	s = s[:n]
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		least := i
		if l < len(s) && h.less(r, s[l], s[least]) {
			least = l
		}
		if rr < len(s) && h.less(r, s[rr], s[least]) {
			least = rr
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}

// Store implements Paged (nil for an empty tree).
func (r *RTree) Store() *pager.Store {
	if r.paged == nil {
		return nil
	}
	return r.paged.Store()
}

// NumPages implements Paged.
func (r *RTree) NumPages() int {
	if r.paged == nil {
		return 0
	}
	return r.paged.NumPages()
}

// PageOf implements Paged: the page of the leaf holding item id.
func (r *RTree) PageOf(id int32) pager.PageID {
	if id < 0 || int(id) >= len(r.elemPage) {
		return pager.InvalidPage
	}
	return r.elemPage[id]
}

// PagesInRange implements Paged: the pages of every node a query of box q
// would visit.
func (r *RTree) PagesInRange(q geom.AABB) []pager.PageID {
	if r.paged == nil {
		return nil
	}
	return r.paged.PagesInRange(q)
}

// homeSrc implements contender.
func (r *RTree) homeSrc() pager.PageSource { return r.home }

// coldSrc implements contender.
func (r *RTree) coldSrc() pager.PageSource { return storeSource(r.Store()) }

// PagedQuery implements Paged (and prefetch.Served).
func (r *RTree) PagedQuery(q geom.AABB, pool *pager.BufferPool, visit func(int32)) {
	if r.paged == nil {
		return
	}
	r.paged.QueryVia(q, pool, func(it rtree.Item) { visit(it.ID) })
}
