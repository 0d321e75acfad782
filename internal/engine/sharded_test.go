package engine_test

// The sharded scatter-gather differential: for shard counts {1, 2, 4, 7} ×
// worker counts {1, 2, 4}, engine.Sharded must emit exactly the hits of the
// unsharded contender (Sharded's fixed native order is ascending global ID)
// with consistent stats — also through per-shard buffer pools, through a
// session's global pool, and under planner-routed execution.

import (
	"context"
	"reflect"
	"testing"

	"neurospatial/internal/engine"
	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/prefetch"
	"neurospatial/internal/rtree"
	"neurospatial/internal/scout"
)

var shardCounts = []int{1, 2, 4, 7}
var shardWorkerCounts = []int{1, 2, 4}

// sortedHits runs a serial Do loop on ix and returns hits in ascending ID
// per query — the canonical gather order Sharded must reproduce — plus the
// per-query stats.
func sortedHits(t testing.TB, ix engine.SpatialIndex, qs []geom.AABB) ([]hit, []engine.QueryStats) {
	t.Helper()
	var hits []hit
	var sts []engine.QueryStats
	for qi, q := range qs {
		ids, st := rangeIDs(t, ix, q)
		sts = append(sts, st)
		for _, id := range ids {
			hits = append(hits, hit{qi, id})
		}
	}
	return hits, sts
}

// openSession opens a session or fails the test.
func openSession(t testing.TB, opts ...engine.SessionOption) *engine.Session {
	t.Helper()
	sess, err := engine.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// subIndexOptions returns the Sharded configuration for a sub-index kind.
func subIndexOptions(kind string, shards int) engine.ShardedOptions {
	return engine.ShardedOptions{Shards: shards, Index: kind}
}

// newContender builds the raw unsharded contender of a sub-index kind, the
// oracle of the sharded differential.
func newContender(t *testing.T, kind string, items []rtree.Item) engine.SpatialIndex {
	t.Helper()
	var ix engine.SpatialIndex
	switch kind {
	case "flat":
		ix = engine.NewFlat(flat.DefaultOptions())
	case "rtree":
		ix = engine.NewRTree(0)
	case "grid":
		ix = engine.NewGrid(engine.GridOptions{})
	default:
		t.Fatalf("unknown contender %q", kind)
	}
	if err := ix.Build(items); err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestShardedMatchesUnshardedDifferential is the acceptance differential:
// hit-for-hit agreement with the unsharded contender across shard counts ×
// worker counts, for every sub-index kind.
func TestShardedMatchesUnshardedDifferential(t *testing.T) {
	items := testItems(t, 12, 7007)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	queries := testQueries(vol, 24)

	for _, kind := range []string{"flat", "rtree", "grid"} {
		t.Run(kind, func(t *testing.T) {
			base := newContender(t, kind, items)
			want, wantStats := sortedHits(t, base, queries)

			for _, k := range shardCounts {
				sh := engine.NewSharded(subIndexOptions(kind, k))
				if err := sh.Build(items); err != nil {
					t.Fatalf("shards=%d: %v", k, err)
				}
				if got := sh.NumShards(); got != k {
					t.Fatalf("shards=%d: built %d shards", k, got)
				}

				// Serial scatter-gather == sorted unsharded serial loop.
				got, gotStats := sortedHits(t, sh, queries)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d: serial hits diverged from unsharded (%d vs %d)",
						k, len(got), len(want))
				}
				for qi := range gotStats {
					if gotStats[qi].Results != wantStats[qi].Results {
						t.Errorf("shards=%d query %d: Results %d, unsharded %d",
							k, qi, gotStats[qi].Results, wantStats[qi].Results)
					}
					if st := gotStats[qi].ShardsTouched; st < 1 || st > int64(k) {
						t.Errorf("shards=%d query %d: ShardsTouched %d outside [1,%d]",
							k, qi, st, k)
					}
				}

				// DoBatch at every worker count == Sharded serial, exact
				// per-query stats included.
				sess := openSession(t, engine.WithIndex(sh))
				for _, w := range shardWorkerCounts {
					batch, bsts := batchHits(t, sess, rangeRequests(queries), w)
					if !reflect.DeepEqual(batch, want) {
						t.Fatalf("shards=%d workers=%d: batch hits diverged", k, w)
					}
					if !reflect.DeepEqual(bsts, gotStats) {
						t.Fatalf("shards=%d workers=%d: batch stats diverged", k, w)
					}
				}
			}
		})
	}
}

// TestShardedPerShardPools runs the differential through per-shard buffer
// pools: same hits, and every shard's pool must have seen its own traffic
// with the accounting identity intact.
func TestShardedPerShardPools(t *testing.T) {
	items := testItems(t, 12, 7008)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	queries := testQueries(vol, 24)

	base := engine.NewFlat(flat.DefaultOptions())
	if err := base.Build(items); err != nil {
		t.Fatal(err)
	}
	want, _ := sortedHits(t, base, queries)

	for _, k := range shardCounts {
		opts := subIndexOptions("flat", k)
		opts.PoolPages = 8
		sh := engine.NewSharded(opts)
		if err := sh.Build(items); err != nil {
			t.Fatal(err)
		}
		sess := openSession(t, engine.WithIndex(sh))
		for _, w := range shardWorkerCounts {
			got, _ := batchHits(t, sess, rangeRequests(queries), w)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d workers=%d: pooled hits diverged", k, w)
			}
		}
		touched := 0
		for i, pool := range sh.ShardPools() {
			if pool == nil {
				t.Fatalf("shards=%d: shard %d has no pool", k, i)
			}
			st := pool.Stats()
			if st.Hits+st.DemandReads > 0 {
				touched++
			}
		}
		if touched == 0 {
			t.Errorf("shards=%d: no shard pool saw traffic", k)
		}
	}
}

// TestShardedThroughGlobalPool reads through one buffer pool over the global
// page space, carried by a session (WithPageSource): hits must be unchanged
// and the pool must account reads in global page IDs.
func TestShardedThroughGlobalPool(t *testing.T) {
	items := testItems(t, 12, 7009)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	queries := testQueries(vol, 24)

	base := engine.NewFlat(flat.DefaultOptions())
	if err := base.Build(items); err != nil {
		t.Fatal(err)
	}
	want, _ := sortedHits(t, base, queries)

	for _, k := range shardCounts {
		sh := engine.NewSharded(subIndexOptions("flat", k))
		if err := sh.Build(items); err != nil {
			t.Fatal(err)
		}
		for _, w := range shardWorkerCounts {
			pool, err := pager.NewBufferPool(sh.Store(), 16)
			if err != nil {
				t.Fatal(err)
			}
			sess := openSession(t, engine.WithIndex(sh), engine.WithPageSource(pool))
			got, _ := batchHits(t, sess, rangeRequests(queries), w)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d workers=%d: globally pooled hits diverged", k, w)
			}
			if st := pool.Stats(); st.Hits+st.DemandReads == 0 {
				t.Errorf("shards=%d workers=%d: global pool saw no traffic", k, w)
			}
		}
	}
}

// TestShardedPlannerRouted pins planner-routed execution over a sharded
// contender: routed output equals the chosen index's serial run for every
// shard × worker combination.
func TestShardedPlannerRouted(t *testing.T) {
	items := testItems(t, 12, 7010)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	queries := testQueries(vol, 16)

	for _, k := range shardCounts {
		sh := engine.NewSharded(subIndexOptions("flat", k))
		if err := sh.Build(items); err != nil {
			t.Fatal(err)
		}
		fl := engine.NewFlat(flat.DefaultOptions())
		if err := fl.Build(items); err != nil {
			t.Fatal(err)
		}
		p := engine.NewPlanner(fl, sh)
		sess := openSession(t, engine.WithPlanner(p))
		for _, w := range shardWorkerCounts {
			results, err := sess.DoBatch(context.Background(), rangeRequests(queries), w)
			if err != nil {
				t.Fatal(err)
			}
			var got []hit
			for qi, r := range results {
				for _, h := range r.Hits {
					got = append(got, hit{qi, h.ID})
				}
			}
			want, _ := sortedHits(t, p.Index(results[0].Index), queries)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d workers=%d: planner-routed hits diverged", k, w)
			}
		}
	}
}

// TestShardedStorageGeometry checks the dense global page remap: page
// contents are global IDs, PageOf/PagesInRange address the global space, and
// the per-shard page ranges are disjoint and dense.
func TestShardedStorageGeometry(t *testing.T) {
	items := testItems(t, 12, 7011)
	sh := engine.NewSharded(subIndexOptions("flat", 4))
	if err := sh.Build(items); err != nil {
		t.Fatal(err)
	}
	store := sh.Store()
	if store == nil || store.NumPages() != sh.NumPages() {
		t.Fatal("global store missing or page count mismatch")
	}
	// Every item is on exactly the global page its PageOf reports.
	seen := make([]int, len(items))
	for p := 0; p < store.NumPages(); p++ {
		for _, id := range store.Page(pager.PageID(p)) {
			if id < 0 || int(id) >= len(items) {
				t.Fatalf("page %d holds non-global ID %d", p, id)
			}
			seen[id]++
			if got := sh.PageOf(id); got != pager.PageID(p) {
				t.Fatalf("item %d laid out on page %d but PageOf says %d", id, p, got)
			}
		}
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("item %d appears on %d pages, want exactly 1", id, n)
		}
	}
	if sh.PageOf(-1) != pager.InvalidPage || sh.PageOf(int32(len(items))) != pager.InvalidPage {
		t.Error("out-of-range PageOf did not return InvalidPage")
	}
	// PagesInRange covers the pages of every query result.
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	for _, q := range testQueries(vol, 8) {
		pages := make(map[pager.PageID]bool)
		for _, p := range sh.PagesInRange(q) {
			pages[p] = true
		}
		ids, _ := rangeIDs(t, sh, q)
		for _, id := range ids {
			if !pages[sh.PageOf(id)] {
				t.Fatalf("result %d's page %d not in PagesInRange", id, sh.PageOf(id))
			}
		}
	}
}

// TestShardedWalkthroughWithPrefetchers runs the prefetch simulator over a
// sharded store with every location prefetcher plus SCOUT: the walkthrough
// must serve the same elements as the unsharded flat-served run, and
// prefetch accounting must stay within the identity bounds.
func TestShardedWalkthroughWithPrefetchers(t *testing.T) {
	items := testItems(t, 10, 7012)
	boxes := make([]geom.AABB, 12)
	for i := range boxes {
		boxes[i] = geom.BoxAround(geom.V(30+float64(i)*12, 100, 100), 15)
	}
	base := engine.NewFlat(flat.DefaultOptions())
	if err := base.Build(items); err != nil {
		t.Fatal(err)
	}
	baseSim := &prefetch.Simulator{
		Index:     base,
		Segment:   func(id int32) geom.Segment { return geom.Segment{} },
		Cost:      pager.DefaultCostModel(),
		ThinkTime: 100,
		PoolPages: base.NumPages(),
	}
	baseRun, err := baseSim.Run(prefetch.None{}, boxes)
	if err != nil {
		t.Fatal(err)
	}

	sh := engine.NewSharded(subIndexOptions("flat", 4))
	if err := sh.Build(items); err != nil {
		t.Fatal(err)
	}
	sim := &prefetch.Simulator{
		Index:     sh,
		Segment:   func(id int32) geom.Segment { return geom.Segment{} },
		Cost:      pager.DefaultCostModel(),
		ThinkTime: 100,
		PoolPages: sh.NumPages(),
	}
	for _, p := range []prefetch.Prefetcher{
		prefetch.None{}, prefetch.Hilbert{}, prefetch.Extrapolation{}, scout.New(scout.Options{}),
	} {
		run, err := sim.Run(p, boxes)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if run.Elements != baseRun.Elements {
			t.Errorf("%s: served %d elements over sharded store, flat served %d",
				p.Name(), run.Elements, baseRun.Elements)
		}
		if run.DemandReads == 0 {
			t.Errorf("%s: walkthrough issued no demand reads", p.Name())
		}
		if run.PrefetchHits > run.PrefetchReads {
			t.Errorf("%s: more prefetch hits (%d) than prefetch reads (%d)",
				p.Name(), run.PrefetchHits, run.PrefetchReads)
		}
	}
}

// TestShardedEmptyAndMoreShardsThanItems covers the degenerate builds.
func TestShardedEmptyAndMoreShardsThanItems(t *testing.T) {
	sh := engine.NewSharded(subIndexOptions("flat", 4))
	if err := sh.Build(nil); err != nil {
		t.Fatal(err)
	}
	if sh.NumItems() != 0 || sh.NumShards() != 0 || sh.NumPages() != 0 {
		t.Fatal("empty build left residue")
	}
	ids, st := rangeIDs(t, sh, geom.BoxAround(geom.V(0, 0, 0), 10))
	if len(ids) != 0 {
		t.Fatal("hit on empty index")
	}
	if st.ShardsTouched != 0 {
		t.Fatal("empty index touched shards")
	}

	items := []rtree.Item{
		{Box: geom.BoxAround(geom.V(0, 0, 0), 1), ID: 0},
		{Box: geom.BoxAround(geom.V(50, 0, 0), 1), ID: 1},
	}
	sh = engine.NewSharded(subIndexOptions("flat", 8))
	if err := sh.Build(items); err != nil {
		t.Fatal(err)
	}
	if sh.NumShards() != 2 {
		t.Fatalf("2 items under 8 shards built %d shards, want 2", sh.NumShards())
	}
	got, _ := rangeIDs(t, sh, geom.BoxAround(geom.V(25, 0, 0), 30))
	if !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Fatalf("got %v, want [0 1]", got)
	}
}
