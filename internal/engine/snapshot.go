package engine

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

// Snapshot is one immutable epoch of a Dataset: a consistent view of the item
// set that readers can pin (Session.Open with WithDataset) while later
// commits land. Structurally it is a delta overlay over a base:
//
//	base   the epoch's contender indexes (flat/rtree/grid/sharded — whichever
//	       the Dataset is configured with), built once over the base item set
//	       and shared read-only by every epoch until a compaction rebuilds
//	       them;
//	delta  a small memtable-style overlay of items inserted or updated since
//	       that build, sorted by ID and scanned brute-force (it is bounded by
//	       the compaction trigger);
//	tombs  the IDs of base items deleted or updated since the build — base
//	       hits matching a tombstone are filtered out at query time.
//
// Queries run through the snapshot's per-contender views (Index/Indexes):
// each view implements SpatialIndex.Do by executing the request on its base
// index, translating base-local IDs to the dataset's stable global IDs,
// dropping tombstoned hits, merging in the delta overlay's hits, and emitting
// the union in the canonical per-kind order — hit for hit identical to a
// from-scratch build of the epoch's live item set. QueryStats gain
// DeltaEntries and Tombstones, the two maintenance counters of the overlay.
//
// A Snapshot also carries its own Planner over the views, so routing cost
// history is per snapshot: an epoch with a heavy delta has genuinely
// different per-kind costs than a freshly compacted one, and the planner's
// inputs reflect exactly the epoch a session is pinned to.
//
// Snapshots are immutable and safe for concurrent readers. Pinning
// (Session.Open / Dataset.Acquire) and Release are refcounting for
// observability — Dataset.Stats reports how many sessions still read old
// epochs; memory itself is reclaimed by the garbage collector once the last
// reference drops.
type Snapshot struct {
	epoch int
	opts  DatasetOptions

	// baseItems is the base build's item set in ascending global-ID order;
	// base index local ID l corresponds to baseItems[l]. Shared read-only
	// across epochs until compaction.
	baseItems []rtree.Item
	// bases are the contender indexes over baseItems relabeled to dense
	// local IDs, aligned with opts.Contenders (nil when the base is empty).
	bases []SpatialIndex
	// delta holds items inserted or updated since the base build, ascending
	// global ID.
	delta []rtree.Item
	// tombs marks base item IDs dead in this epoch.
	tombs map[int32]struct{}
	// baseTombs counts the tombstones that actually name base items — the
	// only ones that can surface as dead base hits, and therefore the only
	// slack a kNN base over-fetch can ever need. (Commit only tombstones
	// live base items today, so this equals len(tombs); counting it per
	// snapshot keeps the over-fetch bound correct if that ever changes.)
	baseTombs int

	live   int
	bounds geom.AABB

	// layout is the epoch's item-page layout (global IDs in base order, dead
	// entries patched out copy-on-write, delta items on appended pages) —
	// what a disk-backed implementation would persist. nBasePages is the
	// fixed base prefix; cow accounts how much of the previous epoch's
	// layout this one reused.
	layout     *pager.Store
	nBasePages int
	cow        pager.CowStats

	views   []SpatialIndex
	planner *Planner

	pins atomic.Int32
}

// newSnapshot wires views and the per-snapshot planner. baseItems and delta
// must be in ascending global-ID order.
func newSnapshot(epoch int, opts DatasetOptions, baseItems []rtree.Item,
	bases []SpatialIndex, delta []rtree.Item, tombs map[int32]struct{},
	layout *pager.Store, nBasePages int, cow pager.CowStats) *Snapshot {

	if tombs == nil {
		tombs = map[int32]struct{}{}
	}
	sn := &Snapshot{
		epoch: epoch, opts: opts,
		baseItems: baseItems, bases: bases, delta: delta, tombs: tombs,
		live:   len(baseItems) - len(tombs) + len(delta),
		layout: layout, nBasePages: nBasePages, cow: cow,
	}
	for id := range tombs {
		if _, ok := sn.baseLocal(id); ok {
			sn.baseTombs++
		}
	}
	// Bounds: union of the base build's bounds and the delta boxes. Deletes
	// do not shrink it (exact re-aggregation would cost O(n) per commit);
	// compaction restores the tight bounds.
	sn.bounds = geom.EmptyAABB()
	if len(bases) > 0 {
		sn.bounds = bases[0].Bounds()
	}
	for _, it := range delta {
		sn.bounds = sn.bounds.Union(it.Box)
	}
	sn.views = make([]SpatialIndex, len(opts.Contenders))
	for i, name := range opts.Contenders {
		var base SpatialIndex
		if bases != nil {
			base = bases[i]
		}
		sn.views[i] = &snapView{name: name, snap: sn, base: base}
	}
	sn.planner = NewPlanner(sn.views...)
	// The per-snapshot planner serves exactly this epoch: keying its plan
	// cache by the epoch makes a cached decision unable to survive a Commit
	// or Compact (each builds a new snapshot, planner and epoch), even when
	// the live item set is identical.
	sn.planner.SetEpoch(int64(epoch))
	return sn
}

// Epoch returns the snapshot's commit sequence number (0 for the initial
// build; every Commit and Compact increments it).
func (sn *Snapshot) Epoch() int { return sn.epoch }

// NumItems returns the number of live items in this epoch.
func (sn *Snapshot) NumItems() int { return sn.live }

// Bounds returns the epoch's (possibly conservative — see Compact) MBR.
func (sn *Snapshot) Bounds() geom.AABB { return sn.bounds }

// DeltaEntries returns the size of the delta overlay.
func (sn *Snapshot) DeltaEntries() int { return len(sn.delta) }

// TombstoneCount returns the number of tombstoned base items.
func (sn *Snapshot) TombstoneCount() int { return len(sn.tombs) }

// Indexes returns the snapshot's contender views in configuration order.
// Every view serves the same live item set with identical canonical-order
// output; they differ only in cost profile.
func (sn *Snapshot) Indexes() []SpatialIndex { return sn.views }

// Index returns the named contender view, or nil.
func (sn *Snapshot) Index(name string) SpatialIndex {
	for _, v := range sn.views {
		if v.Name() == name {
			return v
		}
	}
	return nil
}

// Planner returns the snapshot's own planner over its views — the
// per-snapshot cost inputs: history observed on this epoch never leaks into
// another epoch's routing.
func (sn *Snapshot) Planner() *Planner { return sn.planner }

// Store returns the epoch's item-page layout (base pages, dead entries
// patched out, delta pages appended).
func (sn *Snapshot) Store() *pager.Store { return sn.layout }

// CowStats reports how much of the previous epoch's layout this epoch's
// commit reused (zero for the initial build and for compactions, which lay
// out fresh pages).
func (sn *Snapshot) CowStats() pager.CowStats { return sn.cow }

// Pins returns the number of outstanding acquisitions (pinned sessions).
func (sn *Snapshot) Pins() int { return int(sn.pins.Load()) }

// Release drops one acquisition (Dataset.Acquire or a pinned Session's
// Close). Releasing more than acquired panics — it indicates a double Close.
func (sn *Snapshot) Release() {
	if sn.pins.Add(-1) < 0 {
		panic("engine: Snapshot.Release without matching acquire")
	}
}

func (sn *Snapshot) acquire() { sn.pins.Add(1) }

// ItemBox returns the live box of global item id, and whether the item is
// live in this epoch.
func (sn *Snapshot) ItemBox(id int32) (geom.AABB, bool) {
	if i, ok := sn.deltaIndex(id); ok {
		return sn.delta[i].Box, true
	}
	if l, ok := sn.baseLocal(id); ok {
		if _, dead := sn.tombs[id]; !dead {
			return sn.baseItems[l].Box, true
		}
	}
	return geom.AABB{}, false
}

// baseLocal locates global id in the base item set (ascending by ID).
func (sn *Snapshot) baseLocal(id int32) (int, bool) {
	l := sort.Search(len(sn.baseItems), func(i int) bool { return sn.baseItems[i].ID >= id })
	if l < len(sn.baseItems) && sn.baseItems[l].ID == id {
		return l, true
	}
	return 0, false
}

// deltaIndex locates global id in the delta overlay (ascending by ID).
func (sn *Snapshot) deltaIndex(id int32) (int, bool) {
	i := sort.Search(len(sn.delta), func(i int) bool { return sn.delta[i].ID >= id })
	if i < len(sn.delta) && sn.delta[i].ID == id {
		return i, true
	}
	return 0, false
}

// deltaScan brute-forces the delta overlay for one request, returning hits in
// ascending global-ID order (KNN hits carry Dist2 and are returned unordered
// as candidates). It accounts every overlay entry in st.DeltaEntries.
func (sn *Snapshot) deltaScan(req Request, st *QueryStats) []Hit {
	var out []Hit
	r2 := req.Radius * req.Radius
	for _, it := range sn.delta {
		st.DeltaEntries++
		switch req.Kind {
		case Range:
			if it.Box.Intersects(req.Box) {
				out = append(out, Hit{ID: it.ID})
			}
		case Point:
			if it.Box.Contains(req.Center) {
				out = append(out, Hit{ID: it.ID})
			}
		case WithinDistance:
			if d2 := it.Box.Dist2Point(req.Center); d2 <= r2 {
				out = append(out, Hit{ID: it.ID, Dist2: d2})
			}
		case KNN:
			out = append(out, Hit{ID: it.ID, Dist2: it.Box.Dist2Point(req.Center)})
		}
	}
	return out
}

// snapView is one contender's face of a snapshot: the base index plus the
// overlay merge. It implements the full SpatialIndex surface so sessions and
// planners treat a snapshot exactly like a raw contender.
type snapView struct {
	name string
	snap *Snapshot
	base SpatialIndex // nil when the epoch's base item set is empty
}

// Name implements SpatialIndex; views keep their contender's name, so
// per-kind routing decisions read the same as on raw indexes.
func (v *snapView) Name() string { return v.name }

// homeSrc implements contender: a view reads through its base's home
// source (nil without a base).
func (v *snapView) homeSrc() pager.PageSource { return homeOf(v.base) }

// coldSrc implements contender: the base's in-memory store.
func (v *snapView) coldSrc() pager.PageSource { return coldOf(v.base) }

// Build implements SpatialIndex. Snapshots are immutable: mutations go
// through Dataset.Begin/Commit, rebuilds through Dataset.Compact.
func (v *snapView) Build([]rtree.Item) error {
	return fmt.Errorf("engine: snapshot views are immutable; mutate through the Dataset (Begin/Commit, Compact)")
}

// Bounds implements SpatialIndex.
func (v *snapView) Bounds() geom.AABB { return v.snap.bounds }

// NumItems implements SpatialIndex: the live item count of the epoch. Unlike
// raw indexes, view IDs are the dataset's stable global IDs and need not be
// dense — deletes leave gaps, inserts allocate past the initial range.
func (v *snapView) NumItems() int { return v.snap.live }

// Do implements SpatialIndex: base execution, tombstone filtering, delta
// merge, canonical order — identical output to a from-scratch build of the
// epoch's live items. The merge is the lazy streaming pipeline (iterate):
// base and delta are consumed as ascending-ID streams with the tombstone
// filter inline, never buffered whole. Only the merged output is buffered,
// to honor Do's all-or-nothing emission contract under cancellation.
func (v *snapView) Do(ctx context.Context, req Request, visit func(Hit)) (QueryStats, error) {
	return v.do(ctx, v.homeSrc(), req, visit)
}

// do is Do with the base reading through src.
func (v *snapView) do(ctx context.Context, src pager.PageSource, req Request, visit func(Hit)) (QueryStats, error) {
	if err := req.Validate(); err != nil {
		return QueryStats{}, err
	}
	if visit == nil {
		visit = func(Hit) {}
	}
	if err := ctxErr(ctx); err != nil {
		return QueryStats{}, err
	}
	if req.paginated() {
		return doPaginated(ctx, v, src, req, visit)
	}
	it, err := v.iterate(ctx, src, req, nil)
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

// iterate implements the internal streaming capability: the k-way (here
// 2-way) base∪delta merge with the tombstone filter inline. The base
// contender streams lazily in its local-ID order, which translation
// preserves (baseItems ascend by global ID); the delta overlay streams
// straight off its sorted slice. Base and delta IDs are disjoint — an
// updated item is tombstoned in the base and lives in the delta — so the
// merge needs no deduplication. The resume position is translated to the
// base's local ID space so its zone maps prune pages below the cursor.
func (v *snapView) iterate(ctx context.Context, src pager.PageSource, req Request, after *Hit) (HitIterator, error) {
	if req.Kind == KNN {
		return knnEager(func(visit func(Hit)) (QueryStats, error) {
			return v.doKNN(ctx, src, req, visit)
		}, KNN, after)
	}
	sn := v.snap
	var its []HitIterator
	if v.base != nil {
		var baseAfter *Hit
		if after != nil {
			// The largest base-local ID whose global ID is <= after.ID.
			ub := sort.Search(len(sn.baseItems), func(j int) bool {
				return sn.baseItems[j].ID > after.ID
			})
			if ub > 0 {
				baseAfter = &Hit{ID: int32(ub - 1)}
			}
		}
		bs, err := rawStream(ctx, v.base, src, req, baseAfter)
		if err != nil {
			return nil, err
		}
		extra := &QueryStats{}
		its = append(its, &mapFilterIter{it: bs, extra: extra, fn: func(h Hit) (Hit, bool) {
			g := sn.baseItems[h.ID].ID
			if _, dead := sn.tombs[g]; dead {
				extra.Tombstones++
				return Hit{}, false
			}
			h.ID = g
			return h, true
		}})
	}
	its = append(its, newDeltaIter(sn, req, after))
	return newKWayMerge(its, QueryStats{}), nil
}

// deltaIter streams the delta overlay's hits for one request in ascending
// global-ID order, testing entries lazily as the merge pulls them.
// DeltaEntries counts the entries this execution tested: a full drain tests
// the whole overlay (the eager scan's accounting); a cursor resume starts
// past the skipped prefix without re-testing it.
type deltaIter struct {
	sn  *Snapshot
	req Request
	r2  float64
	i   int
	st  QueryStats
}

func newDeltaIter(sn *Snapshot, req Request, after *Hit) *deltaIter {
	d := &deltaIter{sn: sn, req: req, r2: req.Radius * req.Radius}
	if after != nil {
		d.i = sort.Search(len(sn.delta), func(j int) bool { return sn.delta[j].ID > after.ID })
	}
	return d
}

func (d *deltaIter) Next() (Hit, bool) {
	for d.i < len(d.sn.delta) {
		it := d.sn.delta[d.i]
		d.i++
		d.st.DeltaEntries++
		switch d.req.Kind {
		case Range:
			if it.Box.Intersects(d.req.Box) {
				return Hit{ID: it.ID}, true
			}
		case Point:
			if it.Box.Contains(d.req.Center) {
				return Hit{ID: it.ID}, true
			}
		case WithinDistance:
			if d2 := it.Box.Dist2Point(d.req.Center); d2 <= d.r2 {
				return Hit{ID: it.ID, Dist2: d2}, true
			}
		}
	}
	return Hit{}, false
}

func (d *deltaIter) Err() error        { return nil }
func (d *deltaIter) Stats() QueryStats { return d.st }
func (d *deltaIter) Close()            {}

// doKNN merges the base's live top-k with the delta candidates. The base is
// over-fetched adaptively: dead hits can only come from tombstones naming
// base items, so the first probe asks for k plus that count capped at k (a
// tombstone beyond the k-th live hit cannot displace the live top-k), and
// the probe widens geometrically in the rare case the cap was too tight —
// the same widening idiom as the R-tree's tie resolution. The previous
// over-fetch of k + the raw global tombstone count scanned wildly too much
// at high churn. The stats record is the widest base probe executed.
func (v *snapView) doKNN(ctx context.Context, src pager.PageSource, req Request, visit func(Hit)) (QueryStats, error) {
	sn := v.snap
	var st QueryStats
	var cands []Hit
	if v.base != nil {
		baseSize := v.base.NumItems()
		slack := sn.baseTombs
		if slack > req.K {
			slack = req.K
		}
		kk := req.K + slack
		if kk > baseSize || kk < req.K { // kk < req.K: overflow on an absurd K
			kk = baseSize
		}
		for {
			cands = cands[:0]
			st.Tombstones = 0
			bst, err := doVia(ctx, v.base, src, Request{Kind: KNN, Center: req.Center, K: kk}, func(h Hit) {
				g := sn.baseItems[h.ID].ID
				if _, dead := sn.tombs[g]; dead {
					st.Tombstones++
					return
				}
				cands = append(cands, Hit{ID: g, Dist2: h.Dist2})
			})
			if err != nil {
				return QueryStats{}, err
			}
			bst.Tombstones = st.Tombstones
			st = bst
			// Enough live hits — the live top-k is provably contained (any
			// live item nearer than the k-th live candidate would itself be
			// among the kk nearest) — or the whole base was fetched.
			if len(cands) >= req.K || kk >= baseSize {
				break
			}
			kk *= 2
			if kk > baseSize || kk < 0 {
				kk = baseSize
			}
		}
	}
	cands = append(cands, sn.deltaScan(req, &st)...)
	hits := selectKNN(cands, req.K)
	st.Results = int64(len(hits))
	for _, h := range hits {
		visit(h)
	}
	return st, nil
}
