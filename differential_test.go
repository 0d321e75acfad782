package bench

// The differential harness: every join algorithm — serial and parallel —
// must emit exactly the same pair set on the same inputs, and every parallel
// execution path must reproduce its serial output. This is the guarantee the
// parallel layer (internal/parallel) is built around: slot-ordered merges
// make worker count unobservable. NestedLoop is the oracle; its only filter
// is the box test, so any disagreement localizes a bug in the cleverer
// algorithm.

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"neurospatial/internal/circuit"
	"neurospatial/internal/core"
	"neurospatial/internal/engine"
	"neurospatial/internal/geom"
	"neurospatial/internal/join"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
	"neurospatial/internal/touch"
)

// diffModel builds a small seeded tissue for differential runs. Uniform and
// layered (cortically skewed) variants cover the density regimes that
// separate space-oriented from data-oriented partitioning.
func diffModel(t testing.TB, neurons int, layered bool, seed int64) *core.Model {
	t.Helper()
	p := circuit.DefaultParams()
	p.Neurons = neurons
	p.Volume = geom.Box(geom.V(0, 0, 0), geom.V(220, 220, 220))
	p.Seed = seed
	p.Workers = -1
	if layered {
		p.Layers = circuit.CorticalLayers()
	}
	m, err := core.BuildModel(p, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func collectPairs(alg join.Algorithm, a, b []join.Object, eps float64) []join.Pair {
	var out []join.Pair
	alg.Join(a, b, eps, func(p join.Pair) { out = append(out, p) })
	return out
}

func sortPairs(ps []join.Pair) []join.Pair {
	out := make([]join.Pair, len(ps))
	copy(out, ps)
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

func pairsEqual(a, b []join.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestJoinAlgorithmsAgree asserts that NestedLoop, SweepLine, PBSM, S3 and
// TOUCH — each in serial and, where supported, parallel form — emit
// identical sorted pair sets across eps values on both uniform and skewed
// tissues.
func TestJoinAlgorithmsAgree(t *testing.T) {
	const workers = 4
	for _, tissue := range []struct {
		name    string
		layered bool
		seed    int64
	}{
		{name: "uniform", layered: false, seed: 101},
		{name: "layered", layered: true, seed: 202},
	} {
		t.Run(tissue.name, func(t *testing.T) {
			m := diffModel(t, 10, tissue.layered, tissue.seed)
			axons, dendrites := m.SynapseInputs(m.Circuit.Bounds)
			if len(axons) == 0 || len(dendrites) == 0 {
				t.Fatalf("degenerate tissue: %d axons, %d dendrites", len(axons), len(dendrites))
			}
			algs := []join.Algorithm{
				join.NestedLoop{},
				join.SweepLine{},
				join.PBSM{},
				join.PBSM{Workers: workers},
				join.PBSM{PerCell: 4, Workers: workers},
				join.S3{},
				join.S3{Workers: workers},
				&touch.Touch{},
				&touch.Touch{Opts: touch.Options{Workers: workers}},
			}
			names := []string{
				"NestedLoop", "SweepLine",
				"PBSM", "PBSM-par", "PBSM-fine-par",
				"S3", "S3-par",
				"TOUCH", "TOUCH-par",
			}
			for _, eps := range []float64{0.5, 2.0, 5.0} {
				oracle := sortPairs(collectPairs(algs[0], axons, dendrites, eps))
				if eps >= 2.0 && len(oracle) == 0 {
					t.Errorf("eps=%v: oracle found no pairs — workload degenerate", eps)
				}
				for i, alg := range algs[1:] {
					got := sortPairs(collectPairs(alg, axons, dendrites, eps))
					if !pairsEqual(got, oracle) {
						t.Errorf("eps=%v: %s emitted %d pairs, oracle %d (or content differs)",
							eps, names[i+1], len(got), len(oracle))
					}
				}
			}
		})
	}
}

// TestParallelJoinOrderMatchesSerial asserts the stronger property the
// parallel layer promises: not just the same pair *set* but the same
// emission *sequence* as the serial run, for several worker counts.
func TestParallelJoinOrderMatchesSerial(t *testing.T) {
	m := diffModel(t, 10, true, 303)
	axons, dendrites := m.SynapseInputs(m.Circuit.Bounds)
	const eps = 2.0
	for _, tc := range []struct {
		name     string
		serial   join.Algorithm
		parallel func(workers int) join.Algorithm
	}{
		{
			name:   "PBSM",
			serial: join.PBSM{},
			parallel: func(w int) join.Algorithm {
				return join.PBSM{Workers: w}
			},
		},
		{
			name:   "S3",
			serial: join.S3{},
			parallel: func(w int) join.Algorithm {
				return join.S3{Workers: w}
			},
		},
		{
			name:   "TOUCH",
			serial: &touch.Touch{},
			parallel: func(w int) join.Algorithm {
				return &touch.Touch{Opts: touch.Options{Workers: w}}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := collectPairs(tc.serial, axons, dendrites, eps)
			if len(want) == 0 {
				t.Fatal("serial run found no pairs — workload degenerate")
			}
			for _, w := range []int{2, 3, 8} {
				got := collectPairs(tc.parallel(w), axons, dendrites, eps)
				if !pairsEqual(got, want) {
					t.Errorf("workers=%d: emission sequence diverged from serial "+
						"(%d pairs vs %d)", w, len(got), len(want))
				}
			}
		})
	}
}

// TestS3ParallelStatsMatchSerial pins down the S3 design point that the
// frontier expansion performs exactly the recursion's pruning: all counters,
// not just results, are worker-count independent.
func TestS3ParallelStatsMatchSerial(t *testing.T) {
	m := diffModel(t, 8, false, 404)
	axons, dendrites := m.SynapseInputs(m.Circuit.Bounds)
	serial := join.S3{}.Join(axons, dendrites, 2.0, func(join.Pair) {})
	for _, w := range []int{2, 4} {
		par := join.S3{Workers: w}.Join(axons, dendrites, 2.0, func(join.Pair) {})
		if par.NodePairs != serial.NodePairs || par.BoxTests != serial.BoxTests ||
			par.Comparisons != serial.Comparisons || par.Results != serial.Results {
			t.Errorf("workers=%d: stats diverged: parallel {pairs %d tests %d cmps %d res %d} "+
				"vs serial {%d %d %d %d}",
				w, par.NodePairs, par.BoxTests, par.Comparisons, par.Results,
				serial.NodePairs, serial.BoxTests, serial.Comparisons, serial.Results)
		}
	}
}

// diffHit is one (query, id) pair of a batch's hit stream.
type diffHit struct {
	q  int
	id int32
}

// doIDs runs one Range request through ix.Do, returning the hit IDs in Do's
// canonical ascending order and the stats.
func doIDs(t testing.TB, ix engine.SpatialIndex, q geom.AABB) ([]int32, engine.QueryStats) {
	t.Helper()
	var ids []int32
	st, err := ix.Do(context.Background(), engine.RangeRequest(q), func(h engine.Hit) { ids = append(ids, h.ID) })
	if err != nil {
		t.Fatal(err)
	}
	return ids, st
}

// sessionBatch runs queries as Range requests through sess.DoBatch and
// flattens the hit stream, returning per-query stats too.
func sessionBatch(t testing.TB, sess *engine.Session, queries []geom.AABB, workers int) ([]diffHit, []engine.QueryStats) {
	t.Helper()
	reqs := make([]engine.Request, len(queries))
	for i, q := range queries {
		reqs[i] = engine.RangeRequest(q)
	}
	results, err := sess.DoBatch(context.Background(), reqs, workers)
	if err != nil {
		t.Fatal(err)
	}
	var hits []diffHit
	sts := make([]engine.QueryStats, len(results))
	for qi, r := range results {
		for _, h := range r.Hits {
			hits = append(hits, diffHit{qi, h.ID})
		}
		sts[qi] = r.Stats
	}
	return hits, sts
}

// TestBatchQueryMatchesSerial asserts that batched Range queries on the FLAT
// and R-tree contenders (Session.DoBatch) reproduce a serial Do loop exactly
// — visit order and per-query stats — for several worker counts, with and
// without a buffer pool the session reads through.
func TestBatchQueryMatchesSerial(t *testing.T) {
	m := diffModel(t, 12, false, 505)
	vol := m.Circuit.Params.Volume
	var queries []geom.AABB
	c := vol.Center()
	span := vol.Size().Scale(0.3)
	for i := 0; i < 24; i++ {
		off := geom.V(
			span.X*float64(i%3-1)*0.5,
			span.Y*float64((i/3)%3-1)*0.5,
			span.Z*float64((i/9)%3-1)*0.5,
		)
		queries = append(queries, geom.BoxAround(c.Add(off), 12+float64(i)))
	}

	for _, name := range []string{"flat", "rtree"} {
		ix, err := m.EngineIndex(name)
		if err != nil {
			t.Fatal(err)
		}
		var want []diffHit
		var wantStats []engine.QueryStats
		for qi, q := range queries {
			ids, st := doIDs(t, ix, q)
			for _, id := range ids {
				want = append(want, diffHit{qi, id})
			}
			wantStats = append(wantStats, st)
		}
		sess, err := engine.Open(engine.WithIndex(ix))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 4, 7} {
			got, gotStats := sessionBatch(t, sess, queries, w)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: hit stream diverged from serial (%d vs %d hits)", name, w, len(got), len(want))
			}
			if !reflect.DeepEqual(gotStats, wantStats) {
				t.Errorf("%s workers=%d: per-query stats diverged from serial", name, w)
			}
		}

		// Through a pool the hit/miss split may differ per worker
		// interleaving, but the result stream must not.
		for _, w := range []int{1, 4} {
			pool, err := pager.NewBufferPool(ix.(engine.Paged).Store(), 16)
			if err != nil {
				t.Fatal(err)
			}
			pooled, err := engine.Open(engine.WithIndex(ix), engine.WithPageSource(pool))
			if err != nil {
				t.Fatal(err)
			}
			got, _ := sessionBatch(t, pooled, queries, w)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s+pool workers=%d: hit stream diverged", name, w)
			}
			if st := pool.Stats(); st.Hits+st.DemandReads == 0 {
				t.Errorf("%s+pool workers=%d: pool saw no traffic", name, w)
			}
		}
	}
}

// TestCircuitBuildWorkerCountInvariant asserts parallel tissue generation is
// bit-identical to serial generation.
func TestCircuitBuildWorkerCountInvariant(t *testing.T) {
	base := circuit.DefaultParams()
	base.Neurons = 8
	base.Volume = geom.Box(geom.V(0, 0, 0), geom.V(150, 150, 150))
	base.Seed = 77

	serial := circuit.MustBuild(base)
	for _, w := range []int{2, 5, -1} {
		p := base
		p.Workers = w
		par := circuit.MustBuild(p)
		if len(par.Elements) != len(serial.Elements) {
			t.Fatalf("workers=%d: %d elements, serial %d", w, len(par.Elements), len(serial.Elements))
		}
		for i := range par.Elements {
			if par.Elements[i] != serial.Elements[i] {
				t.Fatalf("workers=%d: element %d differs: %+v vs %+v",
					w, i, par.Elements[i], serial.Elements[i])
			}
		}
		if par.Bounds != serial.Bounds {
			t.Errorf("workers=%d: bounds differ", w)
		}
	}
}

// TestEngineRoutedMatchesDirect is the tentpole differential: on a real
// tissue model, the engine layer's FLAT and R-tree contenders must emit
// exactly the hits and stats of the direct index calls, and the planner's
// routed batch must reproduce its chosen contender's serial run.
func TestEngineRoutedMatchesDirect(t *testing.T) {
	m := diffModel(t, 10, true, 606)
	vol := m.Circuit.Params.Volume
	c := vol.Center()
	var queries []geom.AABB
	for i := 0; i < 16; i++ {
		off := geom.V(
			vol.Size().X*0.25*float64(i%3-1)*0.5,
			vol.Size().Y*0.25*float64((i/3)%3-1)*0.5,
			vol.Size().Z*0.25*float64((i/9)%3-1)*0.5,
		)
		queries = append(queries, geom.BoxAround(c.Add(off), 12+float64(i)))
	}

	eflat, err := m.EngineIndex("flat")
	if err != nil {
		t.Fatal(err)
	}
	ertree, err := m.EngineIndex("rtree")
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		var direct []int32
		ds := m.Flat.Query(q, nil, func(id int32) { direct = append(direct, id) })
		sort.Slice(direct, func(i, j int) bool { return direct[i] < direct[j] })
		routed, es := doIDs(t, eflat, q)
		if !reflect.DeepEqual(routed, direct) {
			t.Fatalf("flat query %d: %d routed hits, %d direct (or content differs)", qi, len(routed), len(direct))
		}
		if es.PagesRead != ds.PagesRead || es.IndexReads != ds.SeedNodeAccesses ||
			es.Results != ds.Results {
			t.Errorf("flat query %d: engine stats %+v vs direct %+v", qi, es, ds)
		}

		var dtree []int32
		ts := m.RTree.Query(q, func(it rtree.Item) { dtree = append(dtree, it.ID) })
		sort.Slice(dtree, func(i, j int) bool { return dtree[i] < dtree[j] })
		rtreeRouted, rs := doIDs(t, ertree, q)
		if !reflect.DeepEqual(rtreeRouted, dtree) {
			t.Fatalf("rtree query %d: %d routed hits, %d direct (or content differs)", qi, len(rtreeRouted), len(dtree))
		}
		if rs.PagesRead != ts.NodeAccesses() || rs.Results != ts.Results {
			t.Errorf("rtree query %d: engine stats %+v vs direct %+v", qi, rs, ts)
		}
	}

	// Planner-routed batch == chosen contender's serial loop, per worker count.
	var bases []engine.SpatialIndex
	for _, name := range []string{"flat", "rtree", "grid", "sharded"} {
		ix, err := m.EngineIndex(name)
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, ix)
	}
	p := engine.NewPlanner(bases...)
	sess, err := engine.Open(engine.WithPlanner(p))
	if err != nil {
		t.Fatal(err)
	}
	first, err := sess.Do(context.Background(), engine.RangeRequest(queries[0]))
	if err != nil {
		t.Fatal(err)
	}
	chosen := p.Index(first.Index)
	var want []diffHit
	for qi, q := range queries {
		ids, _ := doIDs(t, chosen, q)
		for _, id := range ids {
			want = append(want, diffHit{qi, id})
		}
	}
	for _, w := range []int{1, 3, 6} {
		got, _ := sessionBatch(t, sess, queries, w)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: routed hits diverged from %s's serial run", w, chosen.Name())
		}
	}
}
