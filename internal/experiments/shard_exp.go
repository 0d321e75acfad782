package experiments

import (
	"fmt"
	"time"

	"neurospatial/internal/engine"
	"neurospatial/internal/rtree"
	"neurospatial/internal/stats"
)

// E8Config parameterizes the sharded scatter-gather experiment: the
// partitioned-serving regime of the north star, where the item set is split
// into K spatial shards and every query fans out only to the shards whose
// bounds it intersects. It is not a figure of the paper; it extends the
// reproduction along the ROADMAP's sharding axis (cf. the partitioned
// inverted-index serving architecture surveyed in PAPERS.md).
type E8Config struct {
	// Neurons is the model size.
	Neurons int
	// Edge is the volume edge.
	Edge float64
	// Queries is the batch size.
	Queries int
	// QueryRadius is the query half-extent.
	QueryRadius float64
	// ShardCounts lists the shard counts K to sweep; 1 is the unsharded
	// baseline layout.
	ShardCounts []int
	// WorkerCounts lists the execution pool sizes to sweep per K.
	WorkerCounts []int
	// Index names the per-shard contender ("flat", "rtree", "grid");
	// empty selects "flat".
	Index string
	// Seed drives construction and query placement.
	Seed int64
	// Workers is the circuit-construction worker count (repository-wide
	// semantics; the Default* configs select -1).
	Workers int
}

// DefaultE8 returns the configuration used in EXPERIMENTS.md.
func DefaultE8() E8Config {
	return E8Config{
		Neurons:      192,
		Edge:         300,
		Queries:      96,
		QueryRadius:  25,
		ShardCounts:  []int{1, 2, 4, 8},
		WorkerCounts: []int{1, 2, 4, 8},
		Index:        "flat",
		Seed:         13,
		Workers:      -1,
	}
}

// E8Row is one (shard count, worker count) point of the sweep.
type E8Row struct {
	// Shards is the spatial shard count K.
	Shards int
	// Workers is the execution pool size.
	Workers int
	// Queries is the batch size (for normalizing the fan-out).
	Queries int
	// Time is the wall-clock time to drain the batch.
	Time time.Duration
	// Speedup is relative to the 1-worker row of the same shard count.
	Speedup float64
	// PagesRead is the batch's total data-page reads (identical across
	// worker counts — the determinism guarantee).
	PagesRead int64
	// ShardsTouched is the total shard fan-out over the batch; divided by
	// the query count it is the routing selectivity of the shard bounds.
	ShardsTouched int64
	// Results is the total result count (identical across all rows and
	// equal to the unsharded baseline).
	Results int64
}

// E8Result bundles the sweep rows with the planner's routing decision over
// the full contender set (flat, rtree, grid, sharded).
type E8Result struct {
	// Rows holds the shard × worker sweep.
	Rows []E8Row
	// Routing is the planner's decision for the same batch with the
	// sharded contender registered as the fourth index.
	Routing engine.Decision
	// RoutingShards is the shard count of the routed sharded contender.
	RoutingShards int
}

// RunE8 executes the sweep. Every row re-runs the same batch; the runner
// verifies that result totals match the unsharded contender and that page
// accounting and shard fan-out are worker-count-invariant, so a row can only
// exist if the scatter-gather matched the unsharded execution.
func RunE8(cfg E8Config) (*E8Result, error) {
	if cfg.Index == "" {
		cfg.Index = "flat"
	}
	m, err := buildModel(cfg.Neurons, cfg.Edge, cfg.Seed, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("experiments: E8: %w", err)
	}
	items := make([]rtree.Item, len(m.Circuit.Elements))
	for i := range m.Circuit.Elements {
		items[i] = rtree.Item{Box: m.Circuit.Elements[i].Bounds(), ID: m.Circuit.Elements[i].ID}
	}
	queries := centerQueries(m.Circuit.Params.Volume, cfg.Queries, cfg.QueryRadius, cfg.Seed)
	reqs := rangeRequests(queries)

	// Unsharded baseline result total, from the matching engine contender.
	base, err := m.EngineIndex(cfg.Index)
	if err != nil {
		return nil, fmt.Errorf("experiments: E8: %w", err)
	}
	baseAgg, _, err := sessionBatchTotals(base, reqs, 1)
	if err != nil {
		return nil, fmt.Errorf("experiments: E8 baseline: %w", err)
	}
	baseTotal := baseAgg.Results

	res := &E8Result{}
	for _, k := range cfg.ShardCounts {
		sh := engine.NewSharded(engine.ShardedOptions{Shards: k, Index: cfg.Index})
		if err := sh.Build(items); err != nil {
			return nil, fmt.Errorf("experiments: E8 shards=%d: %w", k, err)
		}
		var first E8Row
		haveFirst := false
		for _, w := range cfg.WorkerCounts {
			agg, elapsed, err := sessionBatchTotals(sh, reqs, w)
			if err != nil {
				return nil, fmt.Errorf("experiments: E8 shards=%d workers=%d: %w", k, w, err)
			}
			if agg.Results != baseTotal {
				return nil, fmt.Errorf("experiments: E8 shards=%d workers=%d: %d results, unsharded %d",
					k, w, agg.Results, baseTotal)
			}
			row := E8Row{
				Shards:        k,
				Workers:       w,
				Queries:       len(queries),
				Time:          elapsed,
				Speedup:       1,
				PagesRead:     agg.PagesRead,
				ShardsTouched: agg.ShardsTouched,
				Results:       agg.Results,
			}
			if haveFirst {
				if row.PagesRead != first.PagesRead || row.ShardsTouched != first.ShardsTouched {
					return nil, fmt.Errorf("experiments: E8 shards=%d workers=%d diverged from serial: "+
						"%d pages / %d shard touches vs %d / %d",
						k, w, row.PagesRead, row.ShardsTouched, first.PagesRead, first.ShardsTouched)
				}
				row.Speedup = float64(first.Time) / float64(row.Time)
			} else {
				first, haveFirst = row, true
			}
			res.Rows = append(res.Rows, row)
		}
	}

	// Routing: a planner over the model's four epoch-0 contenders, the
	// sharded one included, plans the same batch as Range requests.
	bases, err := modelIndexes(m, "flat", "rtree", "grid", "sharded")
	if err != nil {
		return nil, fmt.Errorf("experiments: E8: %w", err)
	}
	res.Routing = engine.NewPlanner(bases...).PlanKind(engine.Range, rangeRequests(queries))
	if sh, ok := bases[3].(*engine.Sharded); ok {
		res.RoutingShards = sh.NumShards()
	}
	return res, nil
}

// E8Table renders the sweep rows.
func E8Table(rows []E8Row) *stats.Table {
	tb := stats.NewTable("E8 (north star): sharded scatter-gather — shard × worker sweep, identical output per row",
		"shards", "workers", "time", "speedup", "pages", "shard fan-out/query", "results")
	for _, r := range rows {
		fanout := "-"
		if r.Queries > 0 {
			fanout = fmt.Sprintf("%.2f", float64(r.ShardsTouched)/float64(r.Queries))
		}
		tb.AddRow(
			r.Shards,
			r.Workers,
			stats.Dur(r.Time),
			fmt.Sprintf("%.2fx", r.Speedup),
			r.PagesRead,
			fanout,
			r.Results,
		)
	}
	return tb
}

// E8RoutingTable renders the planner's decision over the full contender set.
func E8RoutingTable(res *E8Result) *stats.Table {
	tb := stats.NewTable(fmt.Sprintf("E8 routing: planner decision across contenders (sharded contender: %d shards)",
		res.RoutingShards),
		"contender", "est. reads/query", "probed", "chosen")
	probed := make(map[string]bool, len(res.Routing.Probed))
	for _, n := range res.Routing.Probed {
		probed[n] = true
	}
	for _, name := range []string{"flat", "rtree", "grid", "sharded"} {
		cost, ok := res.Routing.CostPerQuery[name]
		if !ok {
			continue
		}
		chosen := ""
		if res.Routing.Index != nil && res.Routing.Index.Name() == name {
			chosen = "<-"
		}
		yes := ""
		if probed[name] {
			yes = "yes"
		}
		tb.AddRow(name, fmt.Sprintf("%.1f", cost), yes, chosen)
	}
	return tb
}
