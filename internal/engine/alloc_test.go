package engine_test

// The zero-alloc hot-path gate: BenchmarkDoHotPath measures allocs/op and
// ns/op for every (contender × kind) Do cell, and TestDoHotPathAllocs pins
// the cells the pooled-scratch rework made allocation-free. The assertions
// are skipped under the race detector (its instrumentation allocates) — CI
// runs this package both ways, so the gate still runs on every push.

import (
	"context"
	"fmt"
	"testing"

	"neurospatial/internal/engine"
	"neurospatial/internal/geom"
	"neurospatial/internal/race"
	"neurospatial/internal/stats"
)

// hotPathRequests is one request per kind, sized against the test tissue so
// every kind reports hits (an empty traversal would gate nothing).
func hotPathRequests(vol geom.AABB) []engine.Request {
	c := vol.Center()
	return []engine.Request{
		engine.RangeRequest(geom.BoxAround(c, 40)),
		engine.KNNRequest(c, 8),
		engine.PointRequest(c),
		engine.WithinDistanceRequest(c, 35),
	}
}

// BenchmarkDoHotPath covers every (contender × kind) Do cell. Run with
// -benchmem: allocs/op is the number the E12 harness and the benchgate
// rolling baseline track.
func BenchmarkDoHotPath(b *testing.B) {
	items := testItems(b, 24, 4242)
	indexes := buildIndexes(b, items)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	ctx := context.Background()
	sink := func(engine.Hit) {}
	for _, ix := range indexes {
		for _, req := range hotPathRequests(vol) {
			b.Run(fmt.Sprintf("%s/%s", ix.Name(), req.Kind), func(b *testing.B) {
				if _, err := ix.Do(ctx, req, sink); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ix.Do(ctx, req, sink); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestDoHotPathAllocs asserts the zero-alloc cells stay at zero — every
// Range/KNN/Point/WithinDistance execution on the flat, grid and (since the
// per-level stats record became an inline array) rtree contenders — and pins
// per-cell ceilings on the cells with irreducible allocations: the rtree
// KNN candidate set and the sharded scatter's per-shard gather state. The
// ceilings can only shrink. Allocations are measured as a fraction per op
// (stats.AllocsPerOp, shared with E12), so a path that allocates on every
// second call fails a zero cell.
func TestDoHotPathAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc gate runs in uninstrumented builds")
	}
	items := testItems(t, 24, 4242)
	indexes := buildIndexes(t, items)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	ctx := context.Background()
	sink := func(engine.Hit) {}
	// ceilings["name/kind"] is the per-op allocation budget; absent means 0.
	ceilings := map[string]float64{
		"rtree/knn":      9,
		"sharded/range":  19,
		"sharded/knn":    5,
		"sharded/point":  6,
		"sharded/within": 18,
	}
	for _, ix := range indexes {
		for _, req := range hotPathRequests(vol) {
			req := req
			var doErr error
			got, _, _ := stats.AllocsPerOp(50, func(int) {
				if _, err := ix.Do(ctx, req, sink); err != nil && doErr == nil {
					doErr = err
				}
			})
			if doErr != nil {
				t.Fatal(doErr)
			}
			cell := fmt.Sprintf("%s/%s", ix.Name(), req.Kind)
			// Half an allocation per op over budget fails — on a zero cell,
			// allocating on every second call — while a stray runtime
			// allocation in the window does not.
			if got >= ceilings[cell]+0.5 {
				t.Errorf("%s: %.2f allocs/op, budget %.0f", cell, got, ceilings[cell])
			}
		}
	}
}
