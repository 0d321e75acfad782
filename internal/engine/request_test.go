package engine_test

// Satellite regression coverage of the Request surface: typed validation,
// the rtree KNN native-stats mapping (NodesPerLevel + PagesRead under the
// one-node-per-page convention), and the Aggregate NodesPerLevel sizing fix
// with its micro-benchmark.

import (
	"context"
	"math"
	"reflect"
	"testing"

	"neurospatial/internal/engine"
	"neurospatial/internal/geom"
	"neurospatial/internal/stats"
)

func TestRequestValidate(t *testing.T) {
	nan := math.NaN()
	valid := []engine.Request{
		engine.RangeRequest(geom.BoxAround(geom.V(1, 2, 3), 5)),
		engine.RangeRequest(geom.Box(geom.V(0, 0, 0), geom.V(0, 0, 0))), // degenerate but non-empty
		engine.KNNRequest(geom.V(0, 0, 0), 1),
		engine.PointRequest(geom.V(-1e9, 0, 1e9)),
		engine.WithinDistanceRequest(geom.V(0, 0, 0), 0),
		{Kind: engine.Range, Box: geom.AABB{Min: geom.V(math.Inf(-1), 0, 0), Max: geom.V(math.Inf(1), 1, 1)}},
	}
	for i, r := range valid {
		if err := r.Validate(); err != nil {
			t.Errorf("valid request %d (%s): %v", i, r, err)
		}
	}
	invalid := []struct {
		req   engine.Request
		field string
	}{
		{engine.Request{}, "Kind"},
		{engine.Request{Kind: engine.Kind(200)}, "Kind"},
		{engine.RangeRequest(geom.EmptyAABB()), "Box"},
		{engine.RangeRequest(geom.AABB{Min: geom.V(nan, 0, 0), Max: geom.V(1, 1, 1)}), "Box"},
		{engine.KNNRequest(geom.V(0, 0, 0), 0), "K"},
		{engine.KNNRequest(geom.V(0, nan, 0), 3), "Center"},
		{engine.PointRequest(geom.V(nan, nan, nan)), "Center"},
		{engine.WithinDistanceRequest(geom.V(0, 0, 0), -0.5), "Radius"},
		{engine.WithinDistanceRequest(geom.V(0, 0, 0), nan), "Radius"},
	}
	for i, c := range invalid {
		err := c.req.Validate()
		reqErr, ok := err.(*engine.RequestError)
		if !ok {
			t.Fatalf("invalid request %d (%s): got %v, want *RequestError", i, c.req, err)
		}
		if reqErr.Field != c.field {
			t.Errorf("invalid request %d (%s): blamed field %q, want %q", i, c.req, reqErr.Field, c.field)
		}
		if reqErr.Error() == "" {
			t.Errorf("invalid request %d: empty error text", i)
		}
	}
}

// TestRTreeKNNNativeStats: the engine's KNN record must surface the tree's
// native counters — the per-level node-access breakdown in NodesPerLevel and
// its total as PagesRead (one node per page) — which were dropped on the
// floor before the Request surface because nothing above rtree called KNN.
func TestRTreeKNNNativeStats(t *testing.T) {
	items := testItems(t, 10, 9101)
	ix := engine.NewRTree(0)
	if err := ix.Build(items); err != nil {
		t.Fatal(err)
	}
	tree := ix.Inner()

	for i, k := range []int{1, 5, 16} {
		p := items[(i*41)%len(items)].Box.Center()
		// The engine's executed native search probes one past k (the
		// documented boundary-tie resolution; real coordinates make wider
		// probes measure-zero), so that call's stats are the record.
		kk := k + 1
		if kk > tree.Size() {
			kk = tree.Size()
		}
		nativeItems, native := tree.KNN(p, kk)

		var hits []engine.Hit
		st, err := ix.Do(context.Background(), engine.KNNRequest(p, k), func(h engine.Hit) {
			hits = append(hits, h)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st.NodesPerLevel(), native.NodesPerLevel()) {
			t.Fatalf("k=%d: NodesPerLevel %v, native %v", k, st.NodesPerLevel(), native.NodesPerLevel())
		}
		if st.PagesRead != native.NodeAccesses() {
			t.Fatalf("k=%d: PagesRead %d, native node accesses %d", k, st.PagesRead, native.NodeAccesses())
		}
		if st.EntriesTested != native.EntriesTested {
			t.Fatalf("k=%d: EntriesTested %d, native %d", k, st.EntriesTested, native.EntriesTested)
		}
		if st.IndexReads != 0 {
			t.Fatalf("k=%d: IndexReads %d, want 0 (every R-tree node is a page)", k, st.IndexReads)
		}
		want := k
		if want > tree.Size() {
			want = tree.Size()
		}
		if int(st.Results) != len(hits) || len(hits) != want {
			t.Fatalf("k=%d: Results=%d, %d hits, want %d", k, st.Results, len(hits), want)
		}
		// Every emitted hit is among the native search's items.
		nativeIDs := make(map[int32]bool, len(nativeItems))
		for _, it := range nativeItems {
			nativeIDs[it.ID] = true
		}
		for _, h := range hits {
			if !nativeIDs[h.ID] {
				t.Fatalf("k=%d: hit %d not among native KNN items", k, h.ID)
			}
		}
	}
}

// TestAggregateNodesPerLevel: the allocation-free Aggregate must sum ragged
// per-level records element-wise, exactly as the old slice-grow loop did.
func TestAggregateNodesPerLevel(t *testing.T) {
	in := []engine.QueryStats{
		{PagesRead: 1, LevelNodes: [engine.MaxLevels]int64{3, 2, 1}, Levels: 3},
		{PagesRead: 2},
		{PagesRead: 4, LevelNodes: [engine.MaxLevels]int64{10}, Levels: 1},
		{PagesRead: 8, LevelNodes: [engine.MaxLevels]int64{1, 1, 1, 1, 1}, Levels: 5},
	}
	got := engine.Aggregate(in)
	if got.PagesRead != 15 {
		t.Fatalf("PagesRead %d", got.PagesRead)
	}
	if want := []int64{14, 3, 2, 1, 1}; !reflect.DeepEqual(got.NodesPerLevel(), want) {
		t.Fatalf("NodesPerLevel %v, want %v", got.NodesPerLevel(), want)
	}
	if agg := engine.Aggregate(nil); agg.NodesPerLevel() != nil {
		t.Fatalf("empty aggregate reported NodesPerLevel %v", agg.NodesPerLevel())
	}
	if allocs, _, _ := stats.AllocsPerOp(20, func(int) { _ = engine.Aggregate(in) }); allocs >= 0.5 {
		t.Fatalf("Aggregate allocated %.2f times per run, want 0", allocs)
	}
}

// BenchmarkAggregateNodesPerLevel measures Aggregate over a large batch of
// deep per-level records — the case the original per-record grow loop made
// O(levels) appends per record (and the later sized form one allocation).
func BenchmarkAggregateNodesPerLevel(b *testing.B) {
	const records, levels = 4096, 8
	sts := make([]engine.QueryStats, records)
	for i := range sts {
		st := &sts[i]
		st.PagesRead = int64(i)
		st.Levels = levels
		for l := 0; l < levels; l++ {
			st.LevelNodes[l] = int64(i + l)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := engine.Aggregate(sts)
		if agg.Levels != levels {
			b.Fatal("bad aggregate")
		}
	}
}

// TestKindParseRoundTrip pins the flag-name surface of the kinds.
func TestKindParseRoundTrip(t *testing.T) {
	for _, k := range engine.Kinds() {
		got, err := engine.ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := engine.ParseKind("sphere"); err == nil {
		t.Fatal("ParseKind accepted an unknown name")
	}
}
