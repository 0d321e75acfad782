package engine_test

import (
	"context"
	"sync"
	"testing"

	"neurospatial/internal/engine"
	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
)

// TestRequestScopedSourceIsolation runs three kinds of execution at once on
// the same Sharded (with per-shard pools) and Flat instances — sessions
// reading through a counting tap, first-time plans that probe, and Sharded
// walkthroughs through pools of their own — and checks that each one's page
// source stayed its own: every tapped read belongs to a tapped request, the
// walkthrough pools count exactly what a serial rerun counts, and the probes
// leave the per-shard pools untouched. Under -race it also proves the read
// paths share no mutable state.
func TestRequestScopedSourceIsolation(t *testing.T) {
	items := testItems(t, 10, 4242)
	sh := engine.NewSharded(engine.ShardedOptions{Shards: 4, PoolPages: 8})
	if err := sh.Build(items); err != nil {
		t.Fatal(err)
	}
	fl := engine.NewFlat(flat.DefaultOptions())
	if err := fl.Build(items); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	vol := geom.Box(geom.V(0, 0, 0), geom.V(200, 200, 200))
	queries := testQueries(vol, 12)

	// Warm the per-shard pools through the sharded index's own reads, then
	// freeze their counters: nothing below may touch them.
	for _, q := range queries {
		if _, err := sh.Do(ctx, engine.RangeRequest(q), nil); err != nil {
			t.Fatal(err)
		}
	}
	shardPools := make([]pager.Stats, sh.NumShards())
	for i, pool := range sh.ShardPools() {
		shardPools[i] = pool.Stats()
	}

	type tapped struct {
		ix    engine.Paged
		tap   *pager.Counting
		sess  *engine.Session
		pages int64
	}
	var taps []*tapped
	for _, ix := range []engine.Paged{sh, fl} {
		tap := pager.NewCounting(ix.Store())
		taps = append(taps, &tapped{ix: ix, tap: tap,
			sess: openSession(t, engine.WithIndex(ix), engine.WithPageSource(tap))})
	}

	walk := make([]geom.AABB, 16)
	for i := range walk {
		walk[i] = geom.BoxAround(geom.V(30+float64(i)*9, 100, 100), 15)
	}
	runWalk := func() pager.Stats {
		pool, err := pager.NewBufferPool(sh.Store(), 16)
		if err != nil {
			t.Error(err)
			return pager.Stats{}
		}
		for _, q := range walk {
			sh.PagedQuery(q, pool, func(int32) {})
		}
		return pool.Stats()
	}
	const walkers = 3
	walked := make([]pager.Stats, walkers)

	p := engine.NewPlanner(fl, sh)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, tp := range taps {
		wg.Add(1)
		go func(tp *tapped) {
			defer wg.Done()
			<-start
			for i, q := range queries {
				req := engine.RangeRequest(q)
				if i%2 == 1 {
					req = engine.WithinDistanceRequest(q.Center(), 12)
				}
				res, err := tp.sess.Do(ctx, req)
				if err != nil {
					t.Error(err)
					return
				}
				tp.pages += res.Stats.PagesRead
			}
		}(tp)
	}
	for w := 0; w < walkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			walked[w] = runWalk()
		}(w)
	}
	for _, kind := range engine.Kinds() {
		wg.Add(1)
		go func(kind engine.Kind) {
			defer wg.Done()
			<-start
			var reqs []engine.Request
			for _, q := range queries {
				switch kind {
				case engine.Range:
					reqs = append(reqs, engine.RangeRequest(q))
				case engine.KNN:
					reqs = append(reqs, engine.KNNRequest(q.Center(), 5))
				case engine.Point:
					reqs = append(reqs, engine.PointRequest(q.Center()))
				case engine.WithinDistance:
					reqs = append(reqs, engine.WithinDistanceRequest(q.Center(), 15))
				}
			}
			if d := p.PlanKind(kind, reqs); len(d.Probed) != 2 {
				t.Errorf("first %s plan probed %v, want both contenders", kind, d.Probed)
			}
		}(kind)
	}
	close(start)
	wg.Wait()

	for _, tp := range taps {
		if tp.pages == 0 {
			t.Errorf("%s: tapped requests read no pages", tp.ix.Name())
		}
		if got := tp.tap.Reads(); got != tp.pages {
			t.Errorf("%s: tap counted %d reads, the tapped requests' stats %d", tp.ix.Name(), got, tp.pages)
		}
	}
	want := runWalk()
	if want.DemandReads == 0 {
		t.Fatal("walkthrough issued no demand reads")
	}
	for w, got := range walked {
		if got != want {
			t.Errorf("walker %d: pool counters %+v, serial rerun %+v", w, got, want)
		}
	}
	for i, pool := range sh.ShardPools() {
		if got := pool.Stats(); got != shardPools[i] {
			t.Errorf("shard %d pool moved from %+v to %+v", i, shardPools[i], got)
		}
	}
}
