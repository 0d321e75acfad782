package experiments

import (
	"context"
	"fmt"
	"slices"

	"neurospatial/internal/engine"
	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/race"
	"neurospatial/internal/rtree"
	"neurospatial/internal/stats"
)

// E12Config parameterizes the hot-path allocation experiment: allocs/op and
// ns/op for every (contender × kind × churn) Do cell, plus the plan cache's
// hit rate on a repeated-shape workload. Churn 0 measures the raw contenders
// (the zero-alloc surface of the pooled-scratch rework); churn > 0 applies
// that many same-box updates to a Dataset and measures through the epoch's
// snapshot views, where the delta/tombstone merge necessarily allocates its
// overlay state. It is not a figure of the paper; it pins the engineering
// guarantees the demo's interactive latency rests on (steady-state queries
// must not generate garbage-collection pressure).
type E12Config struct {
	// Items is the item count.
	Items int
	// Edge is the volume edge.
	Edge float64
	// HalfMin and HalfMax bound the item half-extents.
	HalfMin, HalfMax float64
	// PageSize is the contenders' disk-page capacity.
	PageSize int
	// Ops is the number of measured executions per cell.
	Ops int
	// ChurnOps are the churn levels: same-box updates applied to the Dataset
	// before measuring (0 = raw contenders, no overlay).
	ChurnOps []int
	// Rounds is the repeated-shape plan-cache workload length (rounds × one
	// request per kind).
	Rounds int
	// Seed drives item placement.
	Seed int64
}

// DefaultE12 returns the configuration used in EXPERIMENTS.md.
func DefaultE12() E12Config {
	return E12Config{
		Items:    50_000,
		Edge:     1000,
		HalfMin:  0.5,
		HalfMax:  2,
		PageSize: 64,
		Ops:      64,
		ChurnOps: []int{0, 512},
		Rounds:   20,
		Seed:     31,
	}
}

// E12Row is one (contender, kind, churn) cell.
type E12Row struct {
	Contender string
	Kind      engine.Kind
	// Churn is the overlay size the cell ran against (0 = raw index).
	Churn int
	// AllocsPerOp and BytesPerOp are heap allocation counts and bytes per
	// execution (runtime.MemStats deltas over the warm measurement loop).
	AllocsPerOp, BytesPerOp float64
	// NsPerOp is wall-clock per execution. Reported, never gated: it moves
	// with the runner hardware.
	NsPerOp float64
	// Results is the per-query result count (proof the cell measured real
	// traversals, and a deterministic count for the bench gate).
	Results int64
}

// E12Result is the full sweep plus the plan-cache workload summary.
type E12Result struct {
	Rows []E12Row
	// BaselineAllocs is the allocs/op of the unpooled reference execution of
	// the flat Range path (fresh collector slice + per-call closure — the
	// pre-pooling implementation shape); Reduction is BaselineAllocs over the
	// measured flat/Range/churn-0 cell, capped at 1000 when the cell rounds
	// to zero.
	BaselineAllocs float64
	Reduction      float64
	// CacheHits/CacheMisses/HitRate/ProbesRun summarize the repeated-shape
	// planner workload.
	CacheHits, CacheMisses int64
	HitRate                float64
	ProbesRun              int64
}

// e12Requests builds the per-kind request sets: deterministic centers, one
// shape bucket per kind so the plan-cache workload is repeated-shape.
func e12Requests(cfg E12Config, rng interface{ Float64() float64 }) map[engine.Kind][]engine.Request {
	const perKind = 8
	out := make(map[engine.Kind][]engine.Request, 4)
	for i := 0; i < perKind; i++ {
		c := geom.V(
			cfg.Edge*(0.25+0.5*rng.Float64()),
			cfg.Edge*(0.25+0.5*rng.Float64()),
			cfg.Edge*(0.25+0.5*rng.Float64()))
		out[engine.Range] = append(out[engine.Range], engine.RangeRequest(geom.BoxAround(c, cfg.Edge*0.05)))
		out[engine.KNN] = append(out[engine.KNN], engine.KNNRequest(c, 8))
		out[engine.Point] = append(out[engine.Point], engine.PointRequest(c))
		out[engine.WithinDistance] = append(out[engine.WithinDistance],
			engine.WithinDistanceRequest(c, cfg.Edge*0.04))
	}
	return out
}

// measureCell runs the request set Ops times through ix.Do and reports the
// cell's allocation and timing profile (stats.AllocsPerOp). The set is
// executed once unmeasured first, so pools are warm, lazily derived
// structures exist and the per-query result counts are known.
func measureCell(ix engine.SpatialIndex, reqs []engine.Request, ops int) (E12Row, error) {
	ctx := context.Background()
	sink := func(engine.Hit) {}
	var results int64
	for _, r := range reqs {
		st, err := ix.Do(ctx, r, sink)
		if err != nil {
			return E12Row{}, err
		}
		results += st.Results
	}
	var doErr error
	allocs, bytes, el := stats.AllocsPerOp(ops, func(i int) {
		if _, err := ix.Do(ctx, reqs[i%len(reqs)], sink); err != nil && doErr == nil {
			doErr = err
		}
	})
	if doErr != nil {
		return E12Row{}, doErr
	}
	return E12Row{
		AllocsPerOp: allocs,
		BytesPerOp:  bytes,
		NsPerOp:     float64(el.Nanoseconds()) / float64(ops),
		Results:     results / int64(len(reqs)),
	}, nil
}

// e12Escape forces the unpooled reference's per-call state onto the heap the
// way the pre-pooling code's interface boundaries did — without it the
// compiler stack-allocates the collector and the comparison measures nothing.
var e12Escape any

// unpooledFlatRange is the reference execution the reduction factor is
// measured against: the pre-pooling flat Range Do shape — a from-nil collector
// slice grown per query, a fresh emit closure, and a fresh Hit buffer per
// call.
func unpooledFlatRange(idx *flat.Index, reqs []engine.Request, ops int) float64 {
	run := func(q geom.AABB) {
		var ids []int32
		collect := func(id int32) { ids = append(ids, id) }
		e12Escape = collect
		idx.QueryVia(q, idx.Store(), collect)
		slices.Sort(ids)
		hits := make([]engine.Hit, 0, len(ids))
		for _, id := range ids {
			hits = append(hits, engine.Hit{ID: id})
		}
		e12Escape = hits
	}
	allocs, _, _ := stats.AllocsPerOp(ops, func(i int) { run(reqs[i%len(reqs)].Box) })
	return allocs
}

// RunE12 executes the allocation sweep and the plan-cache workload. Under an
// uninstrumented build it self-enforces the rework's guarantees: the flat and
// grid Range/Point churn-0 cells are allocation-free, the flat Range path
// allocates at least 10× less than the unpooled reference, and the
// repeated-shape workload's plan-cache hit rate is at least 90%. Race-detector
// builds (whose instrumentation allocates) report the numbers unenforced.
func RunE12(cfg E12Config) (*E12Result, error) {
	if cfg.Items <= 0 || cfg.Ops <= 0 || cfg.Rounds <= 0 {
		return nil, fmt.Errorf("experiments: E12: Items, Ops and Rounds must be positive")
	}
	if len(cfg.ChurnOps) == 0 || cfg.ChurnOps[0] != 0 {
		return nil, fmt.Errorf("experiments: E12: ChurnOps must start with 0 (the raw-contender cells)")
	}
	rng := newRand(cfg.Seed)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(cfg.Edge, cfg.Edge, cfg.Edge))
	items := make([]rtree.Item, cfg.Items)
	for i := range items {
		c := geom.V(rng.Float64()*cfg.Edge, rng.Float64()*cfg.Edge, rng.Float64()*cfg.Edge)
		h := cfg.HalfMin + rng.Float64()*(cfg.HalfMax-cfg.HalfMin)
		items[i] = rtree.Item{ID: int32(i), Box: geom.BoxAround(c, h).Intersect(vol)}
	}
	reqs := e12Requests(cfg, rng)
	kinds := engine.Kinds()

	res := &E12Result{}
	contenders := func() []engine.SpatialIndex {
		return []engine.SpatialIndex{
			engine.NewFlat(flat.Options{PageSize: cfg.PageSize}),
			engine.NewRTree(0),
			engine.NewGrid(engine.GridOptions{PageSize: cfg.PageSize}),
			engine.NewSharded(engine.ShardedOptions{Flat: flat.Options{PageSize: cfg.PageSize}}),
		}
	}

	raw := contenders()
	var flatInner *flat.Index
	for _, ix := range raw {
		if err := ix.Build(items); err != nil {
			return nil, fmt.Errorf("experiments: E12: building %s: %w", ix.Name(), err)
		}
		if f, ok := ix.(*engine.Flat); ok {
			flatInner = f.Inner()
		}
	}

	for _, churn := range cfg.ChurnOps {
		var views []engine.SpatialIndex
		if churn == 0 {
			views = raw
		} else {
			ds, err := engine.NewDataset(items, engine.DatasetOptions{
				Contenders: []string{"flat", "rtree", "grid", "sharded"},
				Flat:       flat.Options{PageSize: cfg.PageSize},
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: E12: dataset: %w", err)
			}
			tx := ds.Begin()
			for i := 0; i < churn; i++ {
				id := items[i%len(items)].ID
				tx.Update(id, items[i%len(items)].Box)
			}
			if _, err := tx.Commit(); err != nil {
				return nil, fmt.Errorf("experiments: E12: churn commit: %w", err)
			}
			views = ds.Current().Indexes()
		}
		for _, ix := range views {
			for _, k := range kinds {
				row, err := measureCell(ix, reqs[k], cfg.Ops)
				if err != nil {
					return nil, fmt.Errorf("experiments: E12: %s/%s churn %d: %w", ix.Name(), k, churn, err)
				}
				row.Contender, row.Kind, row.Churn = ix.Name(), k, churn
				res.Rows = append(res.Rows, row)
			}
		}
	}

	res.BaselineAllocs = unpooledFlatRange(flatInner, reqs[engine.Range], cfg.Ops)
	for _, r := range res.Rows {
		if r.Contender == "flat" && r.Kind == engine.Range && r.Churn == 0 {
			if r.AllocsPerOp < res.BaselineAllocs/1000 {
				res.Reduction = 1000
			} else {
				res.Reduction = res.BaselineAllocs / r.AllocsPerOp
			}
		}
	}

	// Plan-cache workload: a fresh planner over the raw contenders serving
	// Rounds repeated-shape rounds of all four kinds.
	p := engine.NewPlanner(contenders()...)
	for _, ix := range p.Indexes() {
		if err := ix.Build(items); err != nil {
			return nil, fmt.Errorf("experiments: E12: planner build %s: %w", ix.Name(), err)
		}
	}
	sess, err := engine.Open(engine.WithPlanner(p))
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	for round := 0; round < cfg.Rounds; round++ {
		for _, k := range kinds {
			r := reqs[k][round%len(reqs[k])]
			if _, err := sess.Do(context.Background(), r); err != nil {
				return nil, fmt.Errorf("experiments: E12: plan-cache workload %s: %w", k, err)
			}
		}
	}
	res.CacheHits, res.CacheMisses = p.PlanCacheStats()
	if total := res.CacheHits + res.CacheMisses; total > 0 {
		res.HitRate = float64(res.CacheHits) / float64(total)
	}
	res.ProbesRun = p.ProbesRun()

	if !race.Enabled {
		if err := res.enforce(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// enforce checks the self-enforced guarantees (uninstrumented builds only).
func (res *E12Result) enforce() error {
	for _, r := range res.Rows {
		zeroCell := r.Churn == 0 && (r.Contender == "flat" || r.Contender == "grid")
		if zeroCell && r.AllocsPerOp >= 0.5 {
			return fmt.Errorf("experiments: E12: %s/%s churn 0 allocates %.1f/op — zero-alloc guarantee broken",
				r.Contender, r.Kind, r.AllocsPerOp)
		}
	}
	if res.Reduction < 10 {
		return fmt.Errorf("experiments: E12: flat Range allocs/op reduction %.1fx (baseline %.1f) — want >= 10x",
			res.Reduction, res.BaselineAllocs)
	}
	if res.HitRate < 0.9 {
		return fmt.Errorf("experiments: E12: plan-cache hit rate %.2f — want >= 0.90", res.HitRate)
	}
	return nil
}

// E12Table renders the sweep.
func E12Table(res *E12Result) *stats.Table {
	tb := stats.NewTable("E12: hot-path allocations per Do (pooled scratch + SoA pages + plan cache)"+
		"\n(allocs/op from runtime.MemStats deltas over warm loops; ns/op reported, never gated)",
		"contender", "kind", "churn", "allocs/op", "B/op", "ns/op", "results/q")
	for _, r := range res.Rows {
		tb.AddRow(r.Contender, r.Kind.String(), r.Churn,
			fmt.Sprintf("%.1f", r.AllocsPerOp), fmt.Sprintf("%.0f", r.BytesPerOp),
			fmt.Sprintf("%.0f", r.NsPerOp), r.Results)
	}
	return tb
}

// E12Summary renders the reduction factor and plan-cache workload results.
func E12Summary(res *E12Result) *stats.Table {
	tb := stats.NewTable("E12: guarantees (self-enforced in uninstrumented builds)",
		"metric", "value")
	tb.AddRow("unpooled flat Range allocs/op (reference)", fmt.Sprintf("%.1f", res.BaselineAllocs))
	tb.AddRow("flat Range reduction factor", fmt.Sprintf("%.0fx", res.Reduction))
	tb.AddRow("plan-cache hits", res.CacheHits)
	tb.AddRow("plan-cache misses", res.CacheMisses)
	tb.AddRow("plan-cache hit rate", fmt.Sprintf("%.2f", res.HitRate))
	tb.AddRow("calibration probes run", res.ProbesRun)
	return tb
}
