// Package engine is the unified query-execution layer over the repository's
// spatial indexes — the common face the paper's demo implies: FLAT, the
// R-tree baseline and a thin grid index all serve the *same* interactive
// query workload, so harnesses, drivers and the walkthrough simulator talk
// to one SpatialIndex interface and treat the concrete index as a
// configuration, not a call site.
//
// The layering (bottom to top):
//
//	index     flat.Index, rtree.Tree(+PagedTree), grid.Grid  — structures;
//	          Sharded composes any of them into K spatial shards with
//	          scatter-gather execution (shard.Partition)
//	storage   pager.Store / pager.BufferPool / durable segments via
//	          pager.PageSource — every index reads data pages through a
//	          PageSource that is an argument of each execution, never index
//	          state
//	execution parallel.BatchCtx — one generic deterministic batch executor
//	          (slot-ordered visits, identical-to-serial guarantee, context
//	          cancellation)
//	harness   experiments E1–E13, cmd drivers, prefetch.Simulator
//
// The public front door is the Request/Session surface: a tagged Request
// (Range, KNN, Point, WithinDistance) executed through a Session (Open /
// Do / DoBatch) with context cancellation checked at page-read granularity,
// routed either to a fixed contender or per-kind through the Planner.
//
// Each contender has one execution path: Do reads through the index's fixed
// home source (its own store, or the durable segment it was thawed onto),
// planner calibration probes read the in-memory store, and a
// WithIndex+WithPageSource session reads through the caller's source — the
// same traversal in every case, with the source travelling with the call.
// Every paged wrapper also satisfies prefetch.Served, whose PagedQuery takes
// the walkthrough's buffer pool as an argument, so a walkthrough with
// prefetching can run over any index.
package engine

import (
	"context"

	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

// QueryStats is the unified per-query execution record reported by every
// index behind SpatialIndex. The mapping from each index's native counters
// is documented on the respective wrapper; the shared convention follows the
// demo's statistics panel:
//
//   - IndexReads counts accesses to RAM-resident index structure (FLAT's
//     page-level seed tree, the grid's cell directory). They are reported
//     but are not disk I/O.
//   - PagesRead counts data-page reads — the disk I/O of the query. For the
//     R-tree every node is a disk page (the classic one-node-per-page
//     layout), so its node accesses are page reads.
type QueryStats struct {
	// IndexReads counts RAM-resident index-structure reads.
	IndexReads int64
	// PagesRead counts data-page reads (disk I/O).
	PagesRead int64
	// EntriesTested counts element-box comparisons.
	EntriesTested int64
	// Results counts items reported.
	Results int64
	// Reseeds counts FLAT component re-seeds (0 for other indexes).
	Reseeds int64
	// ShardsTouched counts the spatial shards the query fanned out to
	// (0 for unsharded indexes).
	ShardsTouched int64
	// DeltaEntries counts delta-overlay entries tested when the query ran
	// through a Dataset snapshot (0 on raw indexes and freshly compacted
	// snapshots). Delta entries are RAM-resident, so they are reported
	// separately from EntriesTested and carry no page cost.
	DeltaEntries int64
	// Tombstones counts base-index hits the snapshot overlay discarded as
	// deleted (0 on raw indexes) — the read-side price of deferred deletes.
	Tombstones int64
	// PlanCacheHits / PlanCacheMisses count plan-cache consultations made to
	// route this query (both 0 when no planner routed it — fixed-index and
	// fixed-view sessions, or direct Index.Do calls). A hit replayed a cached
	// routing decision; a miss ran PlanKind, probing any unprofiled
	// contender. In a DoBatch, each distinct kind is routed once and the
	// consultation is recorded on the kind's first request, so aggregated
	// batch stats count exactly the consultations made.
	PlanCacheHits   int64
	PlanCacheMisses int64
	// LevelNodes / Levels are the R-tree's per-level node-access breakdown
	// (leaves first; Levels == 0 for other indexes): LevelNodes[l] counts
	// node accesses at level l, Levels is the number of meaningful entries.
	// An inline array rather than a slice so a stats record never allocates;
	// NodesPerLevel renders the display form.
	LevelNodes [MaxLevels]int64
	Levels     int
}

// MaxLevels bounds the per-level breakdown, matching the rtree record so the
// native array copies straight across.
const MaxLevels = rtree.MaxLevels

// NodesPerLevel renders the per-level breakdown (leaves first) as a freshly
// allocated slice, nil when no R-tree nodes were accessed — the display
// form. Hot paths read LevelNodes[:Levels] in place instead.
func (s QueryStats) NodesPerLevel() []int64 {
	if s.Levels == 0 {
		return nil
	}
	out := make([]int64, s.Levels)
	copy(out, s.LevelNodes[:s.Levels])
	return out
}

// addNode records one node access at level — the allocation-free bump the
// streaming descent shares with the rtree-native record.
func (s *QueryStats) addNode(level int) {
	if level >= MaxLevels {
		level = MaxLevels - 1
	}
	s.LevelNodes[level]++
	if level+1 > s.Levels {
		s.Levels = level + 1
	}
}

// TotalReads returns index reads plus page reads — the total access count
// under the demo's accounting.
func (s QueryStats) TotalReads() int64 { return s.IndexReads + s.PagesRead }

// Cost is the planner's I/O cost of the query: data-page reads dominate,
// RAM-resident index reads are discounted to 1/8 of a page read.
func (s QueryStats) Cost() float64 {
	return float64(s.PagesRead) + float64(s.IndexReads)/8
}

// Aggregate sums per-query statistics into batch totals; the per-level
// breakdown is summed element-wise. Allocation-free: the level counters are
// inline arrays on both sides, so aggregating a batch performs no heap work
// at all (the former []int64 form allocated the output slice).
//
//neurospatial:hotpath
func Aggregate(sts []QueryStats) QueryStats {
	var out QueryStats
	for i := range sts {
		out.IndexReads += sts[i].IndexReads
		out.PagesRead += sts[i].PagesRead
		out.EntriesTested += sts[i].EntriesTested
		out.Results += sts[i].Results
		out.Reseeds += sts[i].Reseeds
		out.ShardsTouched += sts[i].ShardsTouched
		out.DeltaEntries += sts[i].DeltaEntries
		out.Tombstones += sts[i].Tombstones
		out.PlanCacheHits += sts[i].PlanCacheHits
		out.PlanCacheMisses += sts[i].PlanCacheMisses
		for l, c := range sts[i].LevelNodes[:sts[i].Levels] {
			out.LevelNodes[l] += c
		}
		if sts[i].Levels > out.Levels {
			out.Levels = sts[i].Levels
		}
	}
	return out
}

// SpatialIndex is the uniform query interface of the engine layer. Do is the
// front door: one typed Request of any Kind (Range, KNN, Point,
// WithinDistance), hits emitted in the canonical per-kind order (see Hit) —
// identical across contenders, shard counts and worker counts — with
// cancellation observed at page-read granularity where the kind reads pages.
//
// Item IDs must be dense in [0, NumItems()); they are the IDs reported by
// queries — the same contract flat.Build imposes.
type SpatialIndex interface {
	// Name identifies the index in tables and planner decisions.
	Name() string
	// Build (re)constructs the index over the items.
	Build(items []rtree.Item) error
	// Bounds returns the MBR of the indexed data (empty when empty).
	Bounds() geom.AABB
	// NumItems returns the number of indexed items.
	NumItems() int
	// Do executes one typed request, emitting hits in the canonical
	// per-kind order. It returns a *RequestError for an invalid request and
	// ctx.Err() when canceled mid-execution (in which case nothing was
	// emitted — emission is all-or-nothing). A nil ctx reads as
	// context.Background; a nil visit discards hits (stats only).
	// Pagination fields (Limit/Offset/Cursor) are honored: the request is
	// served through the lazy streaming pipeline (see Stream) and only the
	// requested page is emitted, with stats covering only the work of that
	// page. Do returns no resume cursor — paging callers go through
	// Session.Do (which mints one) or Stream + NextCursor.
	Do(ctx context.Context, req Request, visit func(Hit)) (QueryStats, error)
}

// Paged is the storage capability of the engine indexes: element data lives
// on pager pages, and the page geometry is exposed for prefetchers (all
// three methods prefetch.PageGeometry needs). Every index in this package
// implements it. Page reads go through a source chosen per call: Do uses
// the index's home source, and a WithIndex session can substitute its own
// (WithPageSource) — the index itself holds no swappable read path.
type Paged interface {
	SpatialIndex
	// Store returns the index's in-memory page store (wrap it in a
	// pager.BufferPool and pass it to WithPageSource or PagedQuery to run
	// cached).
	Store() *pager.Store
	// NumPages returns the number of data pages.
	NumPages() int
	// PageOf returns the page item id is laid out on.
	PageOf(id int32) pager.PageID
	// PagesInRange returns the pages a query of box q would touch.
	PagesInRange(q geom.AABB) []pager.PageID
	// PagedQuery executes one range query reading through the given pool —
	// the prefetch.Served walkthrough path; the pool's counters are the
	// record. Hits are emitted in the index's native traversal order.
	PagedQuery(q geom.AABB, pool *pager.BufferPool, visit func(id int32))
}

// contender is the one execution path of every engine index and snapshot
// view: Do and the streaming iterate with the page source as an argument of
// the call. The exported Do passes homeSrc(); planner probes pass
// coldSrc(), the in-memory store, so calibration never touches a pool or
// a disk segment; a WithPageSource session passes the caller's source.
type contender interface {
	SpatialIndex
	// homeSrc is the fixed source Do reads through: the index's own
	// store after Build, the durable segment after OpenDataset. Sharded
	// returns nil: each of its shards reads its own home.
	homeSrc() pager.PageSource
	// coldSrc is the in-memory store (nil before Build or when empty).
	coldSrc() pager.PageSource
	// do is Do reading through src.
	do(ctx context.Context, src pager.PageSource, req Request, visit func(Hit)) (QueryStats, error)
	// iterate returns a HitIterator over req's hits strictly after the
	// resume position (nil = from the start), reading through src. req
	// carries no pagination fields — Stream strips them; after is the
	// decoded cursor. Implementations must emit the canonical per-kind
	// order and must not emit hits at or before after.
	iterate(ctx context.Context, src pager.PageSource, req Request, after *Hit) (HitIterator, error)
}

// pagedContender is a paged engine contender: every shard's sub-index, and
// every contender a durable snapshot thaws.
type pagedContender interface {
	Paged
	contender
}

// storeSource converts a possibly nil store to a PageSource without
// producing a non-nil interface around a nil pointer.
func storeSource(s *pager.Store) pager.PageSource {
	if s == nil {
		return nil
	}
	return s
}

// homeOf is ix's home source when ix is an engine contender, else nil.
func homeOf(ix SpatialIndex) pager.PageSource {
	if c, ok := ix.(contender); ok {
		return c.homeSrc()
	}
	return nil
}

// coldOf is ix's in-memory store when ix is an engine contender, else nil.
func coldOf(ix SpatialIndex) pager.PageSource {
	if c, ok := ix.(contender); ok {
		return c.coldSrc()
	}
	return nil
}

// doVia runs req on ix through src when ix is an engine contender; any other
// SpatialIndex owns its reads and runs through its own Do.
func doVia(ctx context.Context, ix SpatialIndex, src pager.PageSource, req Request, visit func(Hit)) (QueryStats, error) {
	if c, ok := ix.(contender); ok {
		return c.do(ctx, src, req, visit)
	}
	return ix.Do(ctx, req, visit)
}
