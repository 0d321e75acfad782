package engine_test

// The snapshot-isolation differential suite: a random interleaved op/query
// script is replayed against a brute-force versioned oracle, pinning hit
// sets, emission order and worker-count invariance per epoch for every
// contender × shards {1, 4} — and additionally against a from-scratch Build
// of each epoch's live item set, before and after Compact (the acceptance
// criterion of the mutable-dataset redesign).

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"neurospatial/internal/engine"
	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
)

// datasetCells is the contender × shard-count matrix of the suite.
func datasetCells() []struct {
	name   string
	opts   engine.DatasetOptions
	shards int
} {
	var cells []struct {
		name   string
		opts   engine.DatasetOptions
		shards int
	}
	add := func(name, contender string, shards int) {
		cells = append(cells, struct {
			name   string
			opts   engine.DatasetOptions
			shards int
		}{name, engine.DatasetOptions{
			Contenders:         []string{contender},
			Shards:             shards,
			DisableAutoCompact: true, // compaction points are chosen by the script
		}, shards})
	}
	add("flat", "flat", 0)
	add("rtree", "rtree", 0)
	add("grid", "grid", 0)
	add("sharded1", "sharded", 1)
	add("sharded4", "sharded", 4)
	return cells
}

// versionedOracle is the brute-force reference: the exact live item set,
// mutated in lockstep with the dataset.
type versionedOracle struct {
	boxes map[int32]geom.AABB
	ids   []int32 // live IDs, kept sorted for deterministic sampling
}

func newVersionedOracle(items []rtree.Item) *versionedOracle {
	o := &versionedOracle{boxes: make(map[int32]geom.AABB, len(items))}
	for _, it := range items {
		o.boxes[it.ID] = it.Box
		o.ids = append(o.ids, it.ID)
	}
	sort.Slice(o.ids, func(a, b int) bool { return o.ids[a] < o.ids[b] })
	return o
}

func (o *versionedOracle) insert(id int32, box geom.AABB) {
	o.boxes[id] = box
	o.ids = append(o.ids, id)
	sort.Slice(o.ids, func(a, b int) bool { return o.ids[a] < o.ids[b] })
}

func (o *versionedOracle) remove(id int32) {
	delete(o.boxes, id)
	for i, v := range o.ids {
		if v == id {
			o.ids = append(o.ids[:i], o.ids[i+1:]...)
			break
		}
	}
}

// live returns the live item set in ascending global-ID order.
func (o *versionedOracle) live() []rtree.Item {
	out := make([]rtree.Item, 0, len(o.ids))
	for _, id := range o.ids {
		out = append(out, rtree.Item{Box: o.boxes[id], ID: id})
	}
	return out
}

// randBox returns a small random box inside the test volume.
func randBox(rng *rand.Rand, vol geom.AABB) geom.AABB {
	size := vol.Size()
	p := geom.V(
		vol.Min.X+rng.Float64()*size.X,
		vol.Min.Y+rng.Float64()*size.Y,
		vol.Min.Z+rng.Float64()*size.Z,
	)
	return geom.BoxAround(p, 1+rng.Float64()*6)
}

// mutateStep applies one random batched mutation to both the dataset and the
// oracle, returning the published snapshot; it fails the test on any error.
func mutateStep(t *testing.T, rng *rand.Rand, ds *engine.Dataset, o *versionedOracle,
	ops int, vol geom.AABB) *engine.Snapshot {
	t.Helper()
	snap, err := mutateStepE(rng, ds, o, ops, vol)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// mutateStepE is the error-returning core of mutateStep, safe to call from
// non-test goroutines (t.Fatal must not leave the test goroutine).
func mutateStepE(rng *rand.Rand, ds *engine.Dataset, o *versionedOracle,
	ops int, vol geom.AABB) (*engine.Snapshot, error) {
	tx := ds.Begin()
	type pending struct {
		kind int // 0 insert, 1 delete, 2 update
		id   int32
		box  geom.AABB
	}
	var batch []pending
	used := make(map[int32]bool) // one op per existing ID per batch
	for i := 0; i < ops; i++ {
		k := rng.Intn(10)
		switch {
		case k < 4 || len(o.ids) == 0: // insert
			box := randBox(rng, vol)
			id := tx.Insert(box)
			batch = append(batch, pending{kind: 0, id: id, box: box})
		case k < 7: // delete
			id := o.ids[rng.Intn(len(o.ids))]
			if used[id] {
				continue
			}
			used[id] = true
			tx.Delete(id)
			batch = append(batch, pending{kind: 1, id: id})
		default: // update
			id := o.ids[rng.Intn(len(o.ids))]
			if used[id] {
				continue
			}
			used[id] = true
			box := randBox(rng, vol)
			tx.Update(id, box)
			batch = append(batch, pending{kind: 2, id: id, box: box})
		}
	}
	snap, err := tx.Commit()
	if err != nil {
		return nil, fmt.Errorf("commit: %v", err)
	}
	for _, p := range batch {
		switch p.kind {
		case 0:
			o.insert(p.id, p.box)
		case 1:
			o.remove(p.id)
		case 2:
			o.remove(p.id)
			o.insert(p.id, p.box)
		}
	}
	if snap.NumItems() != len(o.ids) {
		return nil, fmt.Errorf("epoch %d: snapshot holds %d items, oracle %d",
			snap.Epoch(), snap.NumItems(), len(o.ids))
	}
	return snap, nil
}

// freshBuildHits builds a throwaway contender of the cell's kind over the
// epoch's live item set (relabeled dense, ascending global order) and
// executes the requests — the "from-scratch Build of that epoch's item set"
// side of the acceptance criterion. Local hits are translated back to global
// IDs; ascending-local order is ascending-global order, so emission order is
// directly comparable.
func freshBuildHits(t *testing.T, opts engine.DatasetOptions, live []rtree.Item,
	reqs []engine.Request) [][]engine.Hit {
	t.Helper()
	local := make([]rtree.Item, len(live))
	for l, it := range live {
		local[l] = rtree.Item{Box: it.Box, ID: int32(l)}
	}
	var ix engine.SpatialIndex
	switch opts.Contenders[0] {
	case "flat":
		ix = engine.NewFlat(flat.Options{})
	case "rtree":
		ix = engine.NewRTree(0)
	case "grid":
		ix = engine.NewGrid(engine.GridOptions{})
	case "sharded":
		ix = engine.NewSharded(engine.ShardedOptions{Shards: opts.Shards})
	default:
		t.Fatalf("unknown contender %q", opts.Contenders[0])
	}
	if len(local) > 0 {
		if err := ix.Build(local); err != nil {
			t.Fatal(err)
		}
	}
	out := make([][]engine.Hit, len(reqs))
	for i, r := range reqs {
		if len(local) == 0 {
			continue
		}
		if _, err := ix.Do(context.Background(), r, func(h engine.Hit) {
			out[i] = append(out[i], engine.Hit{ID: live[h.ID].ID, Dist2: h.Dist2})
		}); err != nil {
			t.Fatalf("fresh build request %d: %v", i, err)
		}
	}
	return out
}

// verifyEpoch pins the dataset's current snapshot and checks every request
// against the oracle and the from-scratch build, at workers 1 and 4, with
// worker-count-invariant stats.
func verifyEpoch(t *testing.T, cellName string, ds *engine.Dataset, o *versionedOracle,
	vol geom.AABB, opts engine.DatasetOptions) {
	t.Helper()
	live := o.live()
	reqs := mixedRequests(live, vol)
	want := make([][]engine.Hit, len(reqs))
	for i, r := range reqs {
		want[i] = oracleHits(live, r)
	}
	fresh := freshBuildHits(t, opts, live, reqs)

	sess, err := engine.Open(engine.WithDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	epoch := sess.Snapshot().Epoch()

	var serial []engine.Result
	for _, w := range []int{1, 4} {
		got, err := sess.DoBatch(context.Background(), reqs, w)
		if err != nil {
			t.Fatalf("%s epoch %d workers=%d: %v", cellName, epoch, w, err)
		}
		for i := range got {
			if !hitsEqual(got[i].Hits, want[i]) {
				t.Fatalf("%s epoch %d workers=%d request %d (%s): hits %v, oracle %v",
					cellName, epoch, w, i, reqs[i], got[i].Hits, want[i])
			}
			if !hitsEqual(got[i].Hits, fresh[i]) {
				t.Fatalf("%s epoch %d workers=%d request %d (%s): snapshot %v, from-scratch build %v",
					cellName, epoch, w, i, reqs[i], got[i].Hits, fresh[i])
			}
		}
		if serial == nil {
			serial = got
			continue
		}
		for i := range got {
			a, b := serial[i].Stats, got[i].Stats
			if a.IndexReads != b.IndexReads || a.PagesRead != b.PagesRead ||
				a.EntriesTested != b.EntriesTested || a.Results != b.Results ||
				a.DeltaEntries != b.DeltaEntries || a.Tombstones != b.Tombstones ||
				a.ShardsTouched != b.ShardsTouched {
				t.Fatalf("%s epoch %d request %d: stats diverged across worker counts:\nserial %+v\nworkers=4 %+v",
					cellName, epoch, i, a, b)
			}
		}
	}
}

// TestDatasetDifferential replays a random interleaved op/query script
// against the versioned oracle for every contender × shards {1,4}: after
// every commit the pinned snapshot must return hit-for-hit (same canonical
// order) what a from-scratch Build of the epoch's live set returns, at
// workers {1,4}, and again right after an explicit Compact.
func TestDatasetDifferential(t *testing.T) {
	items := testItems(t, 8, 7001)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))

	for _, cell := range datasetCells() {
		rng := rand.New(rand.NewSource(7001))
		ds, err := engine.NewDataset(items, cell.opts)
		if err != nil {
			t.Fatalf("%s: %v", cell.name, err)
		}
		o := newVersionedOracle(items)

		verifyEpoch(t, cell.name, ds, o, vol, cell.opts) // epoch 0
		for step := 0; step < 5; step++ {
			mutateStep(t, rng, ds, o, 12, vol)
			verifyEpoch(t, cell.name, ds, o, vol, cell.opts)
			if step == 2 {
				// Mid-script compaction: same live set, fresh base.
				snap, err := ds.Compact()
				if err != nil {
					t.Fatalf("%s: compact: %v", cell.name, err)
				}
				if snap.DeltaEntries() != 0 || snap.TombstoneCount() != 0 {
					t.Fatalf("%s: compaction left overlay %d/%d", cell.name,
						snap.DeltaEntries(), snap.TombstoneCount())
				}
				verifyEpoch(t, cell.name, ds, o, vol, cell.opts)
			}
		}
		if _, err := ds.Compact(); err != nil {
			t.Fatalf("%s: final compact: %v", cell.name, err)
		}
		verifyEpoch(t, cell.name, ds, o, vol, cell.opts)

		st := ds.Stats()
		if st.Commits != 5 || st.Compactions != 2 {
			t.Fatalf("%s: stats %+v, want 5 commits / 2 compactions", cell.name, st)
		}
	}
}

// TestDatasetSnapshotIsolation pins a session at one epoch and proves later
// commits — including a compaction — do not change what it reads, while a
// freshly opened session sees the new epoch.
func TestDatasetSnapshotIsolation(t *testing.T) {
	items := testItems(t, 8, 7002)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	ds, err := engine.NewDataset(items, engine.DatasetOptions{
		Contenders: []string{"flat"}, DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := newVersionedOracle(items)
	reqs := mixedRequests(items, vol)

	pinned, err := engine.Open(engine.WithDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Close()
	base, err := pinned.DoBatch(context.Background(), reqs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.Stats().Pinned; got != 1 {
		t.Fatalf("pinned count = %d, want 1", got)
	}

	rng := rand.New(rand.NewSource(7002))
	for step := 0; step < 3; step++ {
		mutateStep(t, rng, ds, o, 16, vol)
		// The pinned epoch must replay identically after every commit.
		again, err := pinned.DoBatch(context.Background(), reqs, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range again {
			if !hitsEqual(again[i].Hits, base[i].Hits) {
				t.Fatalf("step %d request %d: pinned session drifted: %v vs %v",
					step, i, again[i].Hits, base[i].Hits)
			}
		}
	}
	if _, err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	again, err := pinned.DoBatch(context.Background(), reqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if !hitsEqual(again[i].Hits, base[i].Hits) {
			t.Fatalf("post-compact request %d: pinned session drifted", i)
		}
	}

	// A fresh session sees the mutated state — and it differs from epoch 0
	// (the script deleted and inserted items).
	cur, err := engine.Open(engine.WithDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if cur.Snapshot().Epoch() == pinned.Snapshot().Epoch() {
		t.Fatal("fresh session pinned the old epoch")
	}
	live := o.live()
	got, err := cur.DoBatch(context.Background(), reqs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		if want := oracleHits(live, r); !hitsEqual(got[i].Hits, want) {
			t.Fatalf("fresh session request %d (%s): %v, oracle %v", i, r, got[i].Hits, want)
		}
	}
}

// TestDatasetSessionFixedViewAndClose covers WithIndexName routing, Close
// refcounting and double-Close idempotence.
func TestDatasetSessionFixedViewAndClose(t *testing.T) {
	items := testItems(t, 6, 7003)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	ds, err := engine.NewDataset(items, engine.DatasetOptions{
		Contenders: []string{"flat", "grid"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := engine.Open(engine.WithDataset(ds), engine.WithIndexName("grid"))
	if err != nil {
		t.Fatal(err)
	}
	if sess.Index() == nil || sess.Index().Name() != "grid" {
		t.Fatal("fixed view not routed")
	}
	if sess.Planner() != nil {
		t.Fatal("fixed-view session reports a routing planner")
	}
	req := engine.RangeRequest(vol)
	res, err := sess.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Index != "grid" || !hitsEqual(res.Hits, oracleHits(items, req)) {
		t.Fatalf("fixed view result: %s, %d hits", res.Index, res.Stats.Results)
	}
	if got := ds.Stats().Pinned; got != 1 {
		t.Fatalf("pinned = %d", got)
	}
	sess.Close()
	sess.Close() // idempotent
	if got := ds.Stats().Pinned; got != 0 {
		t.Fatalf("pinned after close = %d", got)
	}

	if _, err := engine.Open(engine.WithDataset(ds), engine.WithIndexName("rtree")); err == nil {
		t.Fatal("unknown view name accepted")
	}
	if _, err := engine.Open(engine.WithIndexName("flat")); err == nil {
		t.Fatal("WithIndexName without WithDataset accepted")
	}
	if _, err := engine.Open(engine.WithDataset(ds), engine.WithPlanner(engine.NewPlanner())); err == nil {
		t.Fatal("two routing modes accepted")
	}
}

// TestDatasetInvalidOps: a batch containing any invalid operation is
// rejected whole, leaving the dataset untouched.
func TestDatasetInvalidOps(t *testing.T) {
	items := testItems(t, 6, 7004)
	ds, err := engine.NewDataset(items, engine.DatasetOptions{Contenders: []string{"flat"}})
	if err != nil {
		t.Fatal(err)
	}
	before := ds.Stats()

	cases := []struct {
		name string
		fill func(tx *engine.Tx)
	}{
		{"delete unknown", func(tx *engine.Tx) { tx.Insert(geom.BoxAround(geom.V(1, 1, 1), 1)); tx.Delete(99999) }},
		{"double delete", func(tx *engine.Tx) { tx.Delete(0); tx.Delete(0) }},
		{"update unknown", func(tx *engine.Tx) { tx.Update(99999, geom.BoxAround(geom.V(1, 1, 1), 1)) }},
		{"update deleted", func(tx *engine.Tx) { tx.Delete(1); tx.Update(1, geom.BoxAround(geom.V(1, 1, 1), 1)) }},
		{"NaN insert", func(tx *engine.Tx) {
			tx.Insert(geom.Box(geom.V(math.NaN(), 0, 0), geom.V(1, 1, 1)))
		}},
		{"empty-box update", func(tx *engine.Tx) {
			tx.Update(0, geom.EmptyAABB())
		}},
	}
	for _, c := range cases {
		tx := ds.Begin()
		c.fill(tx)
		if _, err := tx.Commit(); err == nil {
			t.Fatalf("%s: commit succeeded", c.name)
		}
	}
	after := ds.Stats()
	if after.Epoch != before.Epoch || after.Live != before.Live || after.Commits != 0 {
		t.Fatalf("failed commits mutated the dataset: %+v -> %+v", before, after)
	}

	// A finished Tx cannot commit again.
	tx := ds.Begin()
	tx.Insert(geom.BoxAround(geom.V(5, 5, 5), 2))
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err == nil {
		t.Fatal("double Commit succeeded")
	}
	rb := ds.Begin()
	rb.Insert(geom.BoxAround(geom.V(5, 5, 5), 2))
	rb.Rollback()
	if _, err := rb.Commit(); err == nil {
		t.Fatal("Commit after Rollback succeeded")
	}
	if got := ds.Stats().Commits; got != 1 {
		t.Fatalf("commits = %d, want 1", got)
	}
}

// TestDatasetAutoCompact: the size/ratio trigger fires, folds the overlay
// down, and the post-compaction snapshot still matches the oracle.
func TestDatasetAutoCompact(t *testing.T) {
	items := testItems(t, 6, 7005)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	ds, err := engine.NewDataset(items, engine.DatasetOptions{
		Contenders:   []string{"flat"},
		CompactMin:   8,
		CompactRatio: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := newVersionedOracle(items)
	rng := rand.New(rand.NewSource(7005))
	snap := mutateStep(t, rng, ds, o, 24, vol)
	st := ds.Stats()
	if st.AutoCompactions != 1 || st.Compactions != 1 {
		t.Fatalf("auto-compaction did not fire: %+v", st)
	}
	if snap.DeltaEntries() != 0 || snap.TombstoneCount() != 0 {
		t.Fatalf("overlay not folded: %d/%d", snap.DeltaEntries(), snap.TombstoneCount())
	}
	live := o.live()
	sess, err := engine.Open(engine.WithDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for i, r := range mixedRequests(live, vol) {
		res, err := sess.Do(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleHits(live, r); !hitsEqual(res.Hits, want) {
			t.Fatalf("post-auto-compact request %d (%s): %v, oracle %v", i, r, res.Hits, want)
		}
	}
}

// TestDatasetOverlayStatsAndLayout: DeltaEntries/Tombstones surface in
// QueryStats, and the copy-on-write layout shares untouched base pages
// across commits.
func TestDatasetOverlayStatsAndLayout(t *testing.T) {
	items := testItems(t, 8, 7006)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	ds, err := engine.NewDataset(items, engine.DatasetOptions{
		Contenders: []string{"flat"}, DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := ds.Begin()
	tx.Insert(geom.BoxAround(vol.Center(), 3))
	tx.Delete(0)
	tx.Update(1, geom.BoxAround(vol.Center(), 2))
	snap, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if snap.DeltaEntries() != 2 || snap.TombstoneCount() != 2 {
		t.Fatalf("overlay = %d delta / %d tombs, want 2/2", snap.DeltaEntries(), snap.TombstoneCount())
	}

	sess, err := engine.Open(engine.WithDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Do(context.Background(), engine.RangeRequest(vol))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DeltaEntries != 2 {
		t.Fatalf("DeltaEntries = %d, want 2 (every overlay entry tested)", res.Stats.DeltaEntries)
	}
	if res.Stats.Tombstones != 2 {
		t.Fatalf("Tombstones = %d, want 2 (both dead base hits filtered)", res.Stats.Tombstones)
	}

	// Layout: items 0 and 1 share the first page, so one page is patched,
	// the rest of the base prefix stays shared, and the delta fits one
	// appended page.
	cow := snap.CowStats()
	if cow.Patched != 1 || cow.Appended != 1 {
		t.Fatalf("cow stats = %+v, want 1 patched / 1 appended", cow)
	}
	if cow.Shared == 0 {
		t.Fatalf("no base pages shared: %+v", cow)
	}
	base := ds.Stats()
	if base.Cow != cow {
		t.Fatalf("cumulative cow %+v != commit cow %+v", base.Cow, cow)
	}
	if snap.Store() == nil || snap.Store().NumPages() == 0 {
		t.Fatal("snapshot layout missing")
	}
}

// TestDatasetConcurrentWriterReaders is the -race smoke of the redesign: a
// committer goroutine applies batches while reader goroutines pin sessions
// and require each pinned epoch to replay identically.
func TestDatasetConcurrentWriterReaders(t *testing.T) {
	items := testItems(t, 8, 7007)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	ds, err := engine.NewDataset(items, engine.DatasetOptions{
		Contenders: []string{"flat", "grid"},
		CompactMin: 32, CompactRatio: 0.2, // let auto-compactions race readers too
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // committer
		defer wg.Done()
		defer close(stop) // release the readers even if a commit fails
		rng := rand.New(rand.NewSource(7007))
		o := newVersionedOracle(items)
		for i := 0; i < 40; i++ {
			if _, err := mutateStepE(rng, ds, o, 8, vol); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	reqs := []engine.Request{
		engine.RangeRequest(geom.BoxAround(vol.Center(), 40)),
		engine.KNNRequest(vol.Center(), 5),
		engine.PointRequest(vol.Center()),
		engine.WithinDistanceRequest(vol.Center(), 25),
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() { // reader
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sess, err := engine.Open(engine.WithDataset(ds))
				if err != nil {
					t.Error(err)
					return
				}
				first, err := sess.DoBatch(context.Background(), reqs, 2)
				if err != nil {
					t.Error(err)
					sess.Close()
					return
				}
				second, err := sess.DoBatch(context.Background(), reqs, 1)
				if err != nil {
					t.Error(err)
					sess.Close()
					return
				}
				for i := range first {
					if !hitsEqual(first[i].Hits, second[i].Hits) {
						t.Errorf("pinned epoch %d drifted between executions on request %d",
							sess.Snapshot().Epoch(), i)
					}
				}
				sess.Close()
			}
		}()
	}
	wg.Wait()
	if got := ds.Stats().Pinned; got != 0 {
		t.Fatalf("dangling pins after close: %d", got)
	}
}

// TestDatasetValidation covers constructor errors.
func TestDatasetValidation(t *testing.T) {
	items := testItems(t, 6, 7008)
	if _, err := engine.NewDataset(items, engine.DatasetOptions{Contenders: []string{"flat", "flat"}}); err == nil {
		t.Fatal("duplicate contenders accepted")
	}
	if _, err := engine.NewDataset(items, engine.DatasetOptions{Contenders: []string{"btree"}}); err == nil {
		t.Fatal("unknown contender accepted")
	}
	bad := []rtree.Item{{ID: 7}}
	if _, err := engine.NewDataset(bad, engine.DatasetOptions{}); err == nil {
		t.Fatal("non-dense initial IDs accepted")
	}
	ix := engine.NewGrid(engine.GridOptions{})
	if err := ix.Build(items); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.NewDataset(items, engine.DatasetOptions{
		Contenders: []string{"flat"}, Bases: []engine.SpatialIndex{ix},
	}); err == nil || !strings.Contains(err.Error(), "pre-built") {
		t.Fatalf("mismatched pre-built base accepted (%v)", err)
	}

	// Empty initial set: everything lives in the delta until a compaction.
	ds, err := engine.NewDataset(nil, engine.DatasetOptions{Contenders: []string{"flat"}})
	if err != nil {
		t.Fatal(err)
	}
	tx := ds.Begin()
	id := tx.Insert(geom.BoxAround(geom.V(5, 5, 5), 2))
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	sess, err := engine.Open(engine.WithDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Do(context.Background(), engine.PointRequest(geom.V(5, 5, 5)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 1 || res.Hits[0].ID != id {
		t.Fatalf("empty-base dataset lost the insert: %v", res.Hits)
	}
	if _, err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	sess2, err := engine.Open(engine.WithDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	res2, err := sess2.Do(context.Background(), engine.PointRequest(geom.V(5, 5, 5)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Hits) != 1 || res2.Hits[0].ID != id {
		t.Fatalf("post-compact lookup lost the insert: %v", res2.Hits)
	}
}

// TestDatasetProbeLeavesAttachedPoolUntouched extends the planner's
// cold-probe guarantee to snapshot views: a dataset session's calibration
// probes read the base index's in-memory store, so a pool another session
// reads the same view through is neither warmed nor counted against.
func TestDatasetProbeLeavesAttachedPoolUntouched(t *testing.T) {
	items := testItems(t, 8, 7009)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	base := engine.NewFlat(flat.DefaultOptions())
	if err := base.Build(items); err != nil {
		t.Fatal(err)
	}
	pool, err := pager.NewBufferPool(base.Store(), 16)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := engine.NewDataset(items, engine.DatasetOptions{
		Contenders: []string{"flat"}, Bases: []engine.SpatialIndex{base},
	})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := engine.Open(engine.WithIndex(ds.Current().Index("flat")), engine.WithPageSource(pool))
	if err != nil {
		t.Fatal(err)
	}
	var reqs []engine.Request
	for _, q := range []float64{10, 20, 30, 40} {
		reqs = append(reqs, engine.RangeRequest(geom.BoxAround(vol.Center(), q)))
	}
	if _, err := pooled.Do(context.Background(), reqs[0]); err != nil {
		t.Fatal(err)
	}
	warm, warmLen := pool.Stats(), pool.Len()
	if warm.DemandReads == 0 {
		t.Fatal("pooled session read nothing through its pool")
	}
	d := ds.Current().Planner().PlanKind(engine.Range, reqs)
	if len(d.Probed) != 1 {
		t.Fatalf("first plan probed %v, want the one unprofiled view", d.Probed)
	}
	if st := pool.Stats(); st != warm {
		t.Fatalf("snapshot-view probe perturbed a session's pool: %+v, was %+v", st, warm)
	}
	if pool.Len() != warmLen {
		t.Fatalf("snapshot-view probe changed a session's pool from %d to %d pages", warmLen, pool.Len())
	}
}

// TestDatasetDuplicateInitialIDs: the constructor rejects duplicate IDs
// (range-only checking would silently fabricate a phantom zero item).
func TestDatasetDuplicateInitialIDs(t *testing.T) {
	dup := []rtree.Item{
		{Box: geom.BoxAround(geom.V(1, 1, 1), 1), ID: 0},
		{Box: geom.BoxAround(geom.V(2, 2, 2), 1), ID: 0},
	}
	if _, err := engine.NewDataset(dup, engine.DatasetOptions{}); err == nil {
		t.Fatal("duplicate initial IDs accepted")
	}
}

// TestDatasetCrossPlannerProbeRace: two sessions pinned to different epochs
// share the same base index instances, and each snapshot has its own
// planner — first-time probes from both planners must serialize on the
// *instance* (the probe rewires the index's read path), not merely within
// one planner. Run under -race.
func TestDatasetCrossPlannerProbeRace(t *testing.T) {
	items := testItems(t, 8, 7010)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	ds, err := engine.NewDataset(items, engine.DatasetOptions{
		Contenders: []string{"sharded"}, Shards: 4, DisableAutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sessA, err := engine.Open(engine.WithDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer sessA.Close()
	tx := ds.Begin()
	tx.Insert(geom.BoxAround(vol.Center(), 2))
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	sessB, err := engine.Open(engine.WithDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	defer sessB.Close()
	if sessA.Snapshot().Epoch() == sessB.Snapshot().Epoch() {
		t.Fatal("sessions pinned the same epoch")
	}

	var wg sync.WaitGroup
	for _, sess := range []*engine.Session{sessA, sessB} {
		wg.Add(1)
		go func(s *engine.Session) {
			defer wg.Done()
			// First-time kinds on this epoch's planner: probes execute on the
			// shared sharded base.
			for _, req := range []engine.Request{
				engine.KNNRequest(vol.Center(), 4),
				engine.WithinDistanceRequest(vol.Center(), 20),
			} {
				if _, err := s.Do(context.Background(), req); err != nil {
					t.Error(err)
					return
				}
			}
		}(sess)
	}
	wg.Wait()
}
