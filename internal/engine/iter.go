package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
)

// This file is the streaming result path: the lazy HitIterator pipeline that
// replaces collect-then-return execution for paginated requests (and for
// snapshot views, whose base∪delta merge is built from it). The design
// constraint is the canonical hit order (see Hit): ascending ID for the
// boolean kinds, ascending (Dist2, ID) for KNN. Laziness under that order
// comes from zone maps — per-page (min, max) item-ID ranges derived from the
// RAM-resident page layout at build time, like the page MBRs. Candidate
// pages are consumed in ascending min-ID order and a buffered hit is emitted
// only once its ID precedes every unread page's zone, so a consumer that
// stops pulling (Limit satisfied) leaves the remaining pages unread: early
// termination at page-read granularity, without the panic machinery of
// ctxSource — pull-based iterators check ctxErr before every read instead.

// HitIterator is a lazy stream of hits in the canonical per-kind order.
// Obtain one with Stream; drain it with Next until it reports false, then
// check Err (a false Next means either exhaustion or failure). Stats reports
// the execution record of the work performed so far — under a Limit it
// reflects only the pages actually read, which is what the early-stop proofs
// in the tests and E11 measure. Close releases the iterator's resources;
// callers must Close every iterator they obtain, drained or not (dropping
// one early without Close leaks nothing today, but the obligation is part of
// the contract so composed stages — shard merges, snapshot overlays — can
// rely on it).
type HitIterator interface {
	// Next returns the next hit in canonical order. ok == false means the
	// stream is exhausted or failed; check Err to distinguish.
	Next() (h Hit, ok bool)
	// Err returns the first error the stream hit (context cancellation, a
	// failing sub-stream), or nil.
	Err() error
	// Stats returns the execution record of the work performed so far.
	Stats() QueryStats
	// Close releases the iterator. It is idempotent.
	Close()
}

// Cursor is an opaque resume token for paginated requests. A Result whose
// page filled its Limit carries the cursor of the next page; passing it in
// Request.Cursor resumes the stream strictly after the last returned hit.
// Cursors are only meaningful against the same index and item set they were
// minted on; they encode the request kind and the last hit's canonical
// position, nothing else.
type Cursor string

// cursorPrefix versions the token format.
const cursorPrefix = "nsc1"

// NextCursor mints the resume token for the page that follows last — the
// helper drivers use when they drain a Stream by hand instead of going
// through Session.Do.
func NextCursor(kind Kind, last Hit) Cursor {
	return Cursor(fmt.Sprintf("%s:%s:%016x:%08x",
		cursorPrefix, kind, math.Float64bits(last.Dist2), uint32(last.ID)))
}

// decode parses the token back into the kind it was minted for and the
// resume position.
func (c Cursor) decode() (Kind, Hit, error) {
	parts := strings.Split(string(c), ":")
	if len(parts) != 4 || parts[0] != cursorPrefix {
		return KindInvalid, Hit{}, fmt.Errorf("engine: malformed cursor %q", string(c))
	}
	kind, err := ParseKind(parts[1])
	if err != nil {
		return KindInvalid, Hit{}, fmt.Errorf("engine: malformed cursor %q: %v", string(c), err)
	}
	bits, err := strconv.ParseUint(parts[2], 16, 64)
	if err != nil {
		return KindInvalid, Hit{}, fmt.Errorf("engine: malformed cursor %q: bad distance", string(c))
	}
	id, err := strconv.ParseUint(parts[3], 16, 32)
	if err != nil {
		return KindInvalid, Hit{}, fmt.Errorf("engine: malformed cursor %q: bad id", string(c))
	}
	return kind, Hit{ID: int32(uint32(id)), Dist2: math.Float64frombits(bits)}, nil
}

// hitAfter reports whether h strictly follows after in kind's canonical
// order (the resume predicate of cursor paging).
func hitAfter(kind Kind, h, after Hit) bool {
	if kind == KNN {
		if h.Dist2 != after.Dist2 {
			return h.Dist2 > after.Dist2
		}
		return h.ID > after.ID
	}
	return h.ID > after.ID
}

// Stream opens a lazy iterator over req's hits on ix. It validates the
// request (pagination fields included), applies the cursor and Offset/Limit
// stages, and returns the composed pipeline; the caller must Close it.
// Engine contenders and snapshot views execute lazily through their home
// source — under a Limit, pages beyond the last emitted hit are never read;
// other SpatialIndex implementations fall back to a buffered drain of Do
// (correct, but without the early-stop I/O savings).
func Stream(ctx context.Context, ix SpatialIndex, req Request) (HitIterator, error) {
	return stream(ctx, ix, homeOf(ix), req)
}

// stream is Stream reading an engine contender's pages through src.
func stream(ctx context.Context, ix SpatialIndex, src pager.PageSource, req Request) (HitIterator, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	var after *Hit
	if req.Cursor != "" {
		_, h, err := req.Cursor.decode()
		if err != nil { // Validate already checked; defensive
			return nil, &RequestError{Kind: req.Kind, Field: "Cursor", Reason: err.Error()}
		}
		after = &h
	}
	base := req
	base.Limit, base.Offset, base.Cursor = 0, 0, ""
	it, err := rawStream(ctx, ix, src, base, after)
	if err != nil {
		return nil, err
	}
	if req.Offset > 0 || req.Limit > 0 {
		it = &clipIter{it: it, skip: req.Offset, limit: req.Limit}
	}
	return it, nil
}

// rawStream opens the unclipped stream: an engine contender's lazy iterator
// reading through src, a buffered fallback for any other index. req must
// carry no pagination fields.
func rawStream(ctx context.Context, ix SpatialIndex, src pager.PageSource, req Request, after *Hit) (HitIterator, error) {
	if c, ok := ix.(contender); ok {
		return c.iterate(ctx, src, req, after)
	}
	var hits []Hit
	st, err := ix.Do(ctx, req, func(h Hit) { hits = append(hits, h) })
	if err != nil {
		return nil, err
	}
	if after != nil {
		hits = skipThrough(hits, req.Kind, *after)
	}
	return &sliceIter{hits: hits, st: st}, nil
}

// doPaginated serves a paginated request through the lazy pipeline on behalf
// of a contender's do, reading through the same src, so a
// Limit/Offset/Cursor request means the same thing on every execution
// surface. Do's all-or-nothing emission contract is preserved: the page — at
// most the Offset+Limit window — is buffered and emitted only after the
// stream finishes cleanly.
func doPaginated(ctx context.Context, c contender, src pager.PageSource, req Request, visit func(Hit)) (QueryStats, error) {
	it, err := stream(ctx, c, src, req)
	if err != nil {
		return QueryStats{}, err
	}
	defer it.Close()
	var hits []Hit
	for {
		h, ok := it.Next()
		if !ok {
			break
		}
		hits = append(hits, h)
	}
	if err := it.Err(); err != nil {
		return QueryStats{}, err
	}
	for _, h := range hits {
		visit(h)
	}
	return it.Stats(), nil
}

// skipThrough drops the prefix of canonical-order hits at or before after.
func skipThrough(hits []Hit, kind Kind, after Hit) []Hit {
	i := sort.Search(len(hits), func(i int) bool { return hitAfter(kind, hits[i], after) })
	return hits[i:]
}

// sliceIter serves an eagerly computed hit slice (KNN top-k, fallback
// drains) through the iterator surface.
type sliceIter struct {
	hits []Hit
	i    int
	st   QueryStats
	err  error
}

func (s *sliceIter) Next() (Hit, bool) {
	if s.err != nil || s.i >= len(s.hits) {
		return Hit{}, false
	}
	h := s.hits[s.i]
	s.i++
	return h, true
}

func (s *sliceIter) Err() error        { return s.err }
func (s *sliceIter) Stats() QueryStats { return s.st }
func (s *sliceIter) Close()            {}

// clipIter applies Offset/Limit to an underlying stream: skip hits, then
// pass through at most limit (0 = unlimited). Its Stats are the underlying
// record with Results rewritten to the clipped emission count, so a
// paginated Result keeps the Stats.Results == len(Hits) invariant.
type clipIter struct {
	it      HitIterator
	skip    int
	limit   int
	emitted int64
	done    bool
}

func (c *clipIter) Next() (Hit, bool) {
	if c.done {
		return Hit{}, false
	}
	for c.skip > 0 {
		if _, ok := c.it.Next(); !ok {
			c.done = true
			return Hit{}, false
		}
		c.skip--
	}
	if c.limit > 0 && c.emitted >= int64(c.limit) {
		c.done = true
		return Hit{}, false
	}
	h, ok := c.it.Next()
	if !ok {
		c.done = true
		return Hit{}, false
	}
	c.emitted++
	return h, true
}

func (c *clipIter) Err() error { return c.it.Err() }

func (c *clipIter) Stats() QueryStats {
	st := c.it.Stats()
	st.Results = c.emitted
	return st
}

func (c *clipIter) Close() { c.it.Close() }

// idZone is the (min, max) item-ID range of one data page — the zone map
// entry the streaming merge orders and prunes pages by. Like the page MBRs,
// zones are RAM-resident metadata derived from the layout at build time;
// consulting them is not page I/O.
type idZone struct {
	min, max int32
}

// storeZones derives the zone map of a page store. Pages without element
// payload (an R-tree internal node's placeholder) get an empty zone
// (min > max).
func storeZones(s *pager.Store) []idZone {
	zones := make([]idZone, s.NumPages())
	for p := range zones {
		z := idZone{min: math.MaxInt32, max: -1}
		for _, id := range s.Page(pager.PageID(p)) {
			if id < 0 {
				continue
			}
			if id < z.min {
				z.min = id
			}
			if id > z.max {
				z.max = id
			}
		}
		zones[p] = z
	}
	return zones
}

// hitHeap is a min-heap of hits by ID — the pending buffer of the zone-map
// merge (page contents are laid out spatially, not by ID).
type hitHeap []Hit

var hitHeapPool = sync.Pool{New: func() any {
	h := hitHeap(make([]Hit, 0, 64))
	return &h
}}

// getHitHeapBox returns a pool box holding an empty heap slice; iterators
// keep the box and write the grown slice back on Close.
func getHitHeapBox() *hitHeap {
	p := hitHeapPool.Get().(*hitHeap)
	*p = (*p)[:0]
	return p
}

func (h *hitHeap) push(x Hit) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].ID <= s[i].ID {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *hitHeap) pop() Hit {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	s = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(s) && s[l].ID < s[least].ID {
			least = l
		}
		if r < len(s) && s[r].ID < s[least].ID {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}

// pageZone is one candidate page of a zone-map stream.
type pageZone struct {
	p   pager.PageID
	min int32
}

// pageStream is the zone-map merge over a set of candidate data pages: pages
// are read on demand in ascending zone-min order, every resident ID is
// refined by accept (an exact RAM-geometry test), and a buffered hit is
// emitted only once no unread page can precede it. Stopping early leaves the
// remaining pages unread.
type pageStream struct {
	ctx     context.Context
	src     pager.PageSource
	pages   []pageZone // ascending zone min
	next    int
	pending hitHeap
	accept  func(id int32, st *QueryStats) (Hit, bool)
	// pagesBox/pendingBox are the pool boxes the slices came from; Close
	// writes the (possibly grown) slices back and recycles them.
	pagesBox   *[]pageZone
	pendingBox *hitHeap
	// coords, when non-nil, short-circuits accept for the box kinds: the
	// page's residents are refined with a sequential scan of the SoA
	// coordinate sidecar (same tests and counters as the accept closure,
	// without the per-element strided boxOf load).
	coords *pager.Coords
	boxQ   geom.AABB
	// hasAfter/afterID mirror the resume filter for the coords path.
	hasAfter bool
	afterID  int32
	st       QueryStats
	err      error
}

var pageZonePool = sync.Pool{New: func() any {
	s := make([]pageZone, 0, 64)
	return &s
}}

func cmpPageZone(a, b pageZone) int {
	switch {
	case a.min < b.min:
		return -1
	case a.min > b.min:
		return 1
	case a.p < b.p:
		return -1
	case a.p > b.p:
		return 1
	}
	return 0
}

// newPageStream builds the stream over the candidate pages, pruning pages
// entirely at or before the resume position via their zone max.
func newPageStream(ctx context.Context, src pager.PageSource, candidates []pager.PageID,
	zones []idZone, after *Hit, accept func(id int32, st *QueryStats) (Hit, bool)) *pageStream {

	ps := &pageStream{ctx: ctx, src: src, accept: accept,
		pagesBox: pageZonePool.Get().(*[]pageZone), pendingBox: getHitHeapBox()}
	ps.pending = *ps.pendingBox
	ps.st.IndexReads = int64(len(candidates))
	pages := (*ps.pagesBox)[:0]
	for _, p := range candidates {
		z := zones[p]
		if z.max < z.min {
			continue // no element payload
		}
		if after != nil && z.max <= after.ID {
			continue // cursor pushdown: the whole page precedes the resume point
		}
		pages = append(pages, pageZone{p: p, min: z.min})
	}
	*ps.pagesBox = pages
	slices.SortFunc(pages, cmpPageZone)
	ps.pages = pages
	if after != nil {
		ps.hasAfter, ps.afterID = true, after.ID
		inner := ps.accept
		lo := after.ID
		ps.accept = func(id int32, st *QueryStats) (Hit, bool) {
			if id <= lo {
				return Hit{}, false
			}
			return inner(id, st)
		}
	}
	return ps
}

// useCoords switches the box-kind refinement onto the SoA sidecar (see the
// coords field). Only valid when the accept stage is the plain
// box-intersection test against boxQ — the caller asserts that by kind.
func (ps *pageStream) useCoords(c *pager.Coords, boxQ geom.AABB) {
	ps.coords = c
	ps.boxQ = boxQ
}

//neurospatial:hotpath
func (ps *pageStream) Next() (Hit, bool) {
	for {
		if ps.err != nil {
			return Hit{}, false
		}
		// Emit the least pending hit once no unread page can precede it.
		if len(ps.pending) > 0 &&
			(ps.next >= len(ps.pages) || ps.pending[0].ID < ps.pages[ps.next].min) {
			return ps.pending.pop(), true
		}
		if ps.next >= len(ps.pages) {
			return Hit{}, false
		}
		if err := ctxErr(ps.ctx); err != nil {
			ps.err = err
			return Hit{}, false
		}
		pz := ps.pages[ps.next]
		ps.next++
		ps.st.PagesRead++
		ids := ps.src.ReadPage(pz.p)
		if ps.coords != nil {
			base := ps.coords.PageOffset(pz.p)
			for i, id := range ids {
				if id < 0 || (ps.hasAfter && id <= ps.afterID) {
					continue
				}
				ps.st.EntriesTested++
				if ps.coords.IntersectsAt(base+i, ps.boxQ) {
					ps.st.Results++
					ps.pending.push(Hit{ID: id})
				}
			}
			continue
		}
		for _, id := range ids {
			if id < 0 {
				continue
			}
			if h, ok := ps.accept(id, &ps.st); ok {
				ps.st.Results++
				ps.pending.push(h)
			}
		}
	}
}

func (ps *pageStream) Err() error        { return ps.err }
func (ps *pageStream) Stats() QueryStats { return ps.st }

// Close recycles the pooled page list and pending heap. Idempotent; Stats
// stays valid, and a Next after Close sees an empty page list and empty heap
// and reports exhaustion.
func (ps *pageStream) Close() {
	if ps.pagesBox != nil {
		*ps.pagesBox = ps.pages[:0]
		pageZonePool.Put(ps.pagesBox)
		ps.pagesBox, ps.pages, ps.next = nil, nil, 0
	}
	if ps.pendingBox != nil {
		*ps.pendingBox = ps.pending[:0]
		hitHeapPool.Put(ps.pendingBox)
		ps.pendingBox, ps.pending = nil, nil
	}
}

// mapFilterIter translates and filters an inner stream: fn maps each inner
// hit to the outer space or drops it. extra, when non-nil, is a counter
// record fn mutates (e.g. the snapshot overlay's tombstone count) that
// Stats folds into the reported record.
type mapFilterIter struct {
	it    HitIterator
	fn    func(Hit) (Hit, bool)
	extra *QueryStats
}

func (m *mapFilterIter) Next() (Hit, bool) {
	for {
		h, ok := m.it.Next()
		if !ok {
			return Hit{}, false
		}
		if out, keep := m.fn(h); keep {
			return out, true
		}
	}
}

func (m *mapFilterIter) Err() error { return m.it.Err() }

func (m *mapFilterIter) Stats() QueryStats {
	st := m.it.Stats()
	if m.extra != nil {
		st.IndexReads += m.extra.IndexReads
		st.PagesRead += m.extra.PagesRead
		st.EntriesTested += m.extra.EntriesTested
		st.Reseeds += m.extra.Reseeds
		st.ShardsTouched += m.extra.ShardsTouched
		st.DeltaEntries += m.extra.DeltaEntries
		st.Tombstones += m.extra.Tombstones
	}
	return st
}

func (m *mapFilterIter) Close() { m.it.Close() }

// kwayMerge merges ascending-ID streams into one ascending-ID stream — the
// sharded gather and the snapshot base∪delta merge. Input streams must have
// pairwise-disjoint ID sets (shard partitions; base and delta, where an
// updated item is tombstoned out of the base). Stats sums the inputs' records
// plus extra, with Results rewritten to the merged emission count.
type kwayMerge struct {
	its     []HitIterator
	cur     []Hit
	ok      []bool
	primed  bool
	extra   QueryStats
	emitted int64
	err     error
}

func newKWayMerge(its []HitIterator, extra QueryStats) *kwayMerge {
	return &kwayMerge{its: its, cur: make([]Hit, len(its)), ok: make([]bool, len(its)), extra: extra}
}

// advance pulls the next hit of stream i, recording a sub-stream failure.
func (m *kwayMerge) advance(i int) {
	m.cur[i], m.ok[i] = m.its[i].Next()
	if !m.ok[i] {
		if err := m.its[i].Err(); err != nil && m.err == nil {
			m.err = err
		}
	}
}

func (m *kwayMerge) Next() (Hit, bool) {
	if !m.primed {
		m.primed = true
		for i := range m.its {
			m.advance(i)
		}
	}
	if m.err != nil {
		return Hit{}, false
	}
	best := -1
	for i := range m.its {
		if m.ok[i] && (best < 0 || m.cur[i].ID < m.cur[best].ID) {
			best = i
		}
	}
	if best < 0 {
		return Hit{}, false
	}
	h := m.cur[best]
	m.advance(best)
	if m.err != nil {
		return Hit{}, false
	}
	m.emitted++
	return h, true
}

func (m *kwayMerge) Err() error { return m.err }

func (m *kwayMerge) Stats() QueryStats {
	sts := make([]QueryStats, 0, len(m.its)+1)
	for _, it := range m.its {
		sts = append(sts, it.Stats())
	}
	sts = append(sts, m.extra)
	st := Aggregate(sts)
	st.Results = m.emitted
	return st
}

func (m *kwayMerge) Close() {
	for _, it := range m.its {
		it.Close()
	}
}

// knnEager adapts the bounded (O(K) memory) kNN executions onto the iterator
// surface: the top-k is computed eagerly by the contender's bound-tightening
// accumulator, then served as a slice, skipping past the resume position.
// kNN result sets are bounded by K, so laziness buys nothing there; the
// kinds that page million-hit results are the ascending-ID ones.
func knnEager(run func(visit func(Hit)) (QueryStats, error), kind Kind, after *Hit) (HitIterator, error) {
	var hits []Hit
	st, err := run(func(h Hit) { hits = append(hits, h) })
	if err != nil {
		return nil, err
	}
	if after != nil {
		hits = skipThrough(hits, kind, *after)
	}
	return &sliceIter{hits: hits, st: st}, nil
}

// queryBox is the traversal box of an ascending-ID kind: the range box
// itself, the degenerate stab box of Point, the bounding box of the
// WithinDistance sphere.
func queryBox(req Request) geom.AABB {
	switch req.Kind {
	case Point:
		return geom.Box(req.Center, req.Center)
	case WithinDistance:
		return geom.BoxAround(req.Center, req.Radius)
	}
	return req.Box
}

// acceptFor builds the exact-geometry refine stage of an ascending-ID kind:
// the box-intersection test for Range/Point, the exact Dist2Point sphere
// test for WithinDistance. boxOf must resolve IDs from RAM metadata.
func acceptFor(req Request, boxOf func(int32) geom.AABB) func(id int32, st *QueryStats) (Hit, bool) {
	if req.Kind == WithinDistance {
		r2 := req.Radius * req.Radius
		return func(id int32, st *QueryStats) (Hit, bool) {
			st.EntriesTested++
			if d2 := boxOf(id).Dist2Point(req.Center); d2 <= r2 {
				return Hit{ID: id, Dist2: d2}, true
			}
			return Hit{}, false
		}
	}
	q := queryBox(req)
	return func(id int32, st *QueryStats) (Hit, bool) {
		st.EntriesTested++
		if boxOf(id).Intersects(q) {
			return Hit{ID: id}, true
		}
		return Hit{}, false
	}
}
