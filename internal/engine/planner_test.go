package engine_test

// Regression tests for the planner bugfixes: empty-sample routing must be a
// deterministic default (no fabricated 0.0 costs, no re-probing), concurrent
// first plans must probe each index exactly once (the singleflight latch),
// and calibration probes must not perturb a buffer pool a session reads
// through.

import (
	"context"
	"sync"
	"testing"
	"time"

	"neurospatial/internal/engine"
	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
)

// countingIndex wraps a SpatialIndex and counts Do invocations (the probe
// path executes the calibration sample through Do); a configurable delay
// widens the pre-fix double-probe window.
type countingIndex struct {
	engine.SpatialIndex
	mu    sync.Mutex
	dos   int
	delay time.Duration
}

func (c *countingIndex) Do(ctx context.Context, req engine.Request, visit func(engine.Hit)) (engine.QueryStats, error) {
	c.mu.Lock()
	c.dos++
	c.mu.Unlock()
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	return c.SpatialIndex.Do(ctx, req, visit)
}

func (c *countingIndex) doCalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dos
}

// TestPlannerEmptyBatchDefault: PlanKind with an empty sample must return a
// deterministic default — the first registered contender when no history
// exists, the learned-cheapest once history accumulates — with no probes
// and no fabricated 0.0 costs.
func TestPlannerEmptyBatchDefault(t *testing.T) {
	items := testItems(t, 8, 8001)
	indexes := buildIndexes(t, items)
	p := engine.NewPlanner(indexes...)

	for i := 0; i < 3; i++ {
		d := p.PlanKind(engine.Range, nil)
		if d.Index != indexes[0] {
			t.Fatalf("empty plan %d chose %s, want first registered (%s)",
				i, d.Index.Name(), indexes[0].Name())
		}
		if len(d.Probed) != 0 {
			t.Fatalf("empty plan %d probed %v; empty batches cannot be probed", i, d.Probed)
		}
		if len(d.CostPerQuery) != 0 {
			t.Fatalf("empty plan %d fabricated costs %v with no history", i, d.CostPerQuery)
		}
	}

	// With learned history the empty-batch default routes to the cheapest
	// profiled contender, still without probing.
	p.ObserveKind(indexes[1].Name(), engine.Range, []engine.QueryStats{{PagesRead: 2}})
	p.ObserveKind(indexes[0].Name(), engine.Range, []engine.QueryStats{{PagesRead: 100}})
	d := p.PlanKind(engine.Range, []engine.Request{})
	if d.Index != indexes[1] {
		t.Fatalf("empty plan with history chose %s, want learned-cheapest %s",
			d.Index.Name(), indexes[1].Name())
	}
	if len(d.Probed) != 0 || len(d.CostPerQuery) != 2 {
		t.Fatalf("empty plan with history: probed %v, costs %v", d.Probed, d.CostPerQuery)
	}
	if d.String() == "" {
		t.Error("empty decision rendering")
	}

	// History is per kind: an empty KNN sample still has none.
	if d := p.PlanKind(engine.KNN, nil); d.Index != indexes[0] || len(d.CostPerQuery) != 0 {
		t.Fatalf("empty KNN plan chose %s with costs %v", d.Index.Name(), d.CostPerQuery)
	}
}

// TestPlannerConcurrentPlansProbeOnce: many concurrent first plans must run
// exactly one calibration probe per index (pre-fix, the check-then-act race
// probed and observed the same index multiple times, skewing its history).
func TestPlannerConcurrentPlansProbeOnce(t *testing.T) {
	items := testItems(t, 8, 8002)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	reqs := rangeRequests(testQueries(vol, 12))

	inner := engine.NewFlat(flat.DefaultOptions())
	if err := inner.Build(items); err != nil {
		t.Fatal(err)
	}
	counting := &countingIndex{SpatialIndex: inner, delay: 20 * time.Millisecond}
	p := engine.NewPlanner(counting)

	const goroutines = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	probed := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			d := p.PlanKind(engine.Range, reqs)
			probed[g] = len(d.Probed)
		}(g)
	}
	close(start)
	wg.Wait()

	// One probe executes ProbeQueries (3) sample requests through Do.
	if got := counting.doCalls(); got != 3 {
		t.Fatalf("%d concurrent first plans executed %d probe queries, want exactly 3 (one probe)",
			goroutines, got)
	}
	total := 0
	for _, n := range probed {
		total += n
	}
	if total != 1 {
		t.Fatalf("%d decisions reported the probe, want exactly 1", total)
	}
}

// TestPlannerConcurrentKindProbesSerialize: concurrent probes of all four
// kinds on the same index, from many goroutines, must leave a pool that a
// session reads the index through exactly as the session left it: probes
// read the in-memory store, passed per call, so they race with nothing.
// Pre-fix, a Range and a KNN probe raced on a shared source swap (a -race
// report) and leaked probe traffic into the attached pool.
func TestPlannerConcurrentKindProbesSerialize(t *testing.T) {
	items := testItems(t, 8, 8005)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	queries := testQueries(vol, 12)

	ix := engine.NewFlat(flat.DefaultOptions())
	if err := ix.Build(items); err != nil {
		t.Fatal(err)
	}
	pool, err := pager.NewBufferPool(ix.Store(), 16)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := engine.Open(engine.WithIndex(ix), engine.WithPageSource(pool))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pooled.Do(context.Background(), engine.RangeRequest(queries[0])); err != nil {
		t.Fatal(err)
	}
	warm, warmLen := pool.Stats(), pool.Len()
	p := engine.NewPlanner(ix)

	kinds := []struct {
		kind engine.Kind
		reqs []engine.Request
	}{
		{engine.Range, nil},
		{engine.KNN, nil},
		{engine.Point, nil},
		{engine.WithinDistance, nil},
	}
	for i := range kinds {
		for _, q := range queries {
			c := q.Center()
			switch kinds[i].kind {
			case engine.Range:
				kinds[i].reqs = append(kinds[i].reqs, engine.RangeRequest(q))
			case engine.KNN:
				kinds[i].reqs = append(kinds[i].reqs, engine.KNNRequest(c, 4))
			case engine.Point:
				kinds[i].reqs = append(kinds[i].reqs, engine.PointRequest(c))
			case engine.WithinDistance:
				kinds[i].reqs = append(kinds[i].reqs, engine.WithinDistanceRequest(c, 10))
			}
		}
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		for _, kc := range kinds {
			wg.Add(1)
			go func(kind engine.Kind, reqs []engine.Request) {
				defer wg.Done()
				<-start
				p.PlanKind(kind, reqs)
			}(kc.kind, kc.reqs)
		}
	}
	close(start)
	wg.Wait()

	if st := pool.Stats(); st != warm {
		t.Fatalf("concurrent kind probes perturbed the session's pool: %+v, was %+v", st, warm)
	}
	if pool.Len() != warmLen {
		t.Fatalf("concurrent kind probes changed the session's pool from %d to %d pages", warmLen, pool.Len())
	}
	if got := p.ProbesRun(); got != int64(len(kinds)) {
		t.Fatalf("%d probes ran, want one per kind (%d)", got, len(kinds))
	}
}

// TestPlannerProbeLeavesAttachedPoolUntouched: a calibration probe must run
// against the index's in-memory store, leaving the pool a session reads the
// index through exactly as it was, and that session keeps reading through
// its pool afterwards.
func TestPlannerProbeLeavesAttachedPoolUntouched(t *testing.T) {
	items := testItems(t, 8, 8003)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	queries := testQueries(vol, 12)

	ix := engine.NewFlat(flat.DefaultOptions())
	if err := ix.Build(items); err != nil {
		t.Fatal(err)
	}
	pool, err := pager.NewBufferPool(ix.Store(), 16)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := engine.Open(engine.WithIndex(ix), engine.WithPageSource(pool))
	if err != nil {
		t.Fatal(err)
	}

	p := engine.NewPlanner(ix)
	d := p.PlanKind(engine.Range, rangeRequests(queries))
	if len(d.Probed) != 1 {
		t.Fatalf("first plan probed %v, want the one unprofiled contender", d.Probed)
	}
	if st := pool.Stats(); st != (pager.Stats{}) {
		t.Fatalf("probe perturbed the session's pool: %+v", st)
	}
	if pool.Len() != 0 {
		t.Fatalf("probe populated the session's pool with %d pages", pool.Len())
	}

	// The session still reads through its pool.
	if _, err := pooled.Do(context.Background(), engine.RangeRequest(queries[0])); err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.DemandReads+st.Hits == 0 {
		t.Fatal("the session's pool saw no traffic on a real query")
	}
}

// TestPlannerProbeLeavesShardPoolsUntouched extends the cold-probe guarantee
// to the sharded index's internal per-shard pools: planning must not warm
// them or skew their counters either.
func TestPlannerProbeLeavesShardPoolsUntouched(t *testing.T) {
	items := testItems(t, 8, 8004)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	reqs := rangeRequests(testQueries(vol, 12))

	opts := subIndexOptions("flat", 3)
	opts.PoolPages = 8
	sh := engine.NewSharded(opts)
	if err := sh.Build(items); err != nil {
		t.Fatal(err)
	}

	p := engine.NewPlanner(sh)
	if d := p.PlanKind(engine.Range, reqs); len(d.Probed) != 1 {
		t.Fatalf("first plan probed %v", d.Probed)
	}
	for i, pool := range sh.ShardPools() {
		if st := pool.Stats(); st != (pager.Stats{}) {
			t.Fatalf("probe perturbed shard %d's pool: %+v", i, st)
		}
		if pool.Len() != 0 {
			t.Fatalf("probe populated shard %d's pool with %d pages", i, pool.Len())
		}
	}

	// Real execution still runs through the per-shard pools.
	for _, r := range reqs {
		if _, err := sh.Do(context.Background(), r, nil); err != nil {
			t.Fatal(err)
		}
	}
	touched := 0
	for _, pool := range sh.ShardPools() {
		if st := pool.Stats(); st.DemandReads+st.Hits > 0 {
			touched++
		}
	}
	if touched == 0 {
		t.Fatal("per-shard pools saw no traffic on real execution")
	}
}
