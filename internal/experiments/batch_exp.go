package experiments

import (
	"context"
	"fmt"
	"time"

	"neurospatial/internal/engine"
	"neurospatial/internal/geom"
	"neurospatial/internal/stats"
)

// E7Config parameterizes the batched concurrent-query experiment: the
// multi-user regime of the north star, where many range queries arrive at
// once and the system must use every core. It is not a figure of the paper;
// it extends the reproduction along the §5 "scaling the model further" axis.
type E7Config struct {
	// Neurons is the model size.
	Neurons int
	// Edge is the volume edge.
	Edge float64
	// Queries is the batch size.
	Queries int
	// QueryRadius is the query half-extent.
	QueryRadius float64
	// WorkerCounts lists the pool sizes to sweep; 1 is the serial baseline.
	WorkerCounts []int
	// Seed drives construction and query placement.
	Seed int64
	// Workers is the circuit-construction worker count (repository-wide
	// semantics; the Default* configs select -1). Distinct from
	// WorkerCounts, which sweeps the query-execution pool.
	Workers int
}

// rangeRequests wraps query boxes as Range requests for the Session surface.
func rangeRequests(queries []geom.AABB) []engine.Request {
	reqs := make([]engine.Request, len(queries))
	for i, q := range queries {
		reqs[i] = engine.RangeRequest(q)
	}
	return reqs
}

// sessionBatchTotals opens a fixed-index Session over ix, drains reqs at the
// given worker count, and returns the batch's aggregated stats and
// wall-clock time — the shared measurement step of the E7 and E8 sweeps.
func sessionBatchTotals(ix engine.SpatialIndex, reqs []engine.Request, workers int) (engine.QueryStats, time.Duration, error) {
	sess, err := engine.Open(engine.WithIndex(ix))
	if err != nil {
		return engine.QueryStats{}, 0, err
	}
	defer sess.Close()
	start := time.Now()
	results, err := sess.DoBatch(context.Background(), reqs, workers)
	elapsed := time.Since(start)
	if err != nil {
		return engine.QueryStats{}, 0, err
	}
	sts := make([]engine.QueryStats, len(results))
	for i := range results {
		sts[i] = results[i].Stats
	}
	return engine.Aggregate(sts), elapsed, nil
}

// DefaultE7 returns the configuration used in EXPERIMENTS.md.
func DefaultE7() E7Config {
	return E7Config{
		Neurons:      192,
		Edge:         300,
		Queries:      96,
		QueryRadius:  25,
		WorkerCounts: []int{1, 2, 4, 8},
		Seed:         11,
		Workers:      -1,
	}
}

// E7Row is one worker-count point of the batch experiment.
type E7Row struct {
	// Workers is the pool size.
	Workers int
	// FlatTime and RTreeTime are the wall-clock times to drain the batch.
	FlatTime, RTreeTime time.Duration
	// FlatSpeedup and RTreeSpeedup are relative to the 1-worker row.
	FlatSpeedup, RTreeSpeedup float64
	// PagesRead is FLAT's total crawl page reads (identical across rows —
	// the determinism guarantee).
	PagesRead int64
	// Results is the total result count (identical across rows).
	Results int64
}

// RunE7 executes the worker sweep over the engine contenders, each behind a
// fixed-index Session (the Request front door). Every row re-runs the same
// batch through the shared deterministic executor; the runner verifies that
// result totals and page accounting are identical across worker counts
// before reporting, so a row can only exist if the parallel execution
// matched the serial one.
func RunE7(cfg E7Config) ([]E7Row, error) {
	m, err := buildModel(cfg.Neurons, cfg.Edge, cfg.Seed, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("experiments: E7: %w", err)
	}
	queries := centerQueries(m.Circuit.Params.Volume, cfg.Queries, cfg.QueryRadius, cfg.Seed)
	reqs := rangeRequests(queries)
	ixs, err := modelIndexes(m, "flat", "rtree")
	if err != nil {
		return nil, fmt.Errorf("experiments: E7: %w", err)
	}
	var rows []E7Row
	for _, w := range cfg.WorkerCounts {
		fagg, flatTime, err := sessionBatchTotals(ixs[0], reqs, w)
		if err != nil {
			return nil, fmt.Errorf("experiments: E7 flat workers=%d: %w", w, err)
		}
		ragg, rtreeTime, err := sessionBatchTotals(ixs[1], reqs, w)
		if err != nil {
			return nil, fmt.Errorf("experiments: E7 rtree workers=%d: %w", w, err)
		}
		if fagg.Results != ragg.Results {
			return nil, fmt.Errorf("experiments: E7: workers=%d: FLAT found %d results, R-tree %d",
				w, fagg.Results, ragg.Results)
		}
		row := E7Row{
			Workers:   w,
			FlatTime:  flatTime,
			RTreeTime: rtreeTime,
			PagesRead: fagg.PagesRead,
			Results:   fagg.Results,
		}
		if len(rows) > 0 {
			if row.Results != rows[0].Results || row.PagesRead != rows[0].PagesRead {
				return nil, fmt.Errorf("experiments: E7: workers=%d diverged from serial: "+
					"%d results / %d pages vs %d / %d",
					w, row.Results, row.PagesRead, rows[0].Results, rows[0].PagesRead)
			}
			row.FlatSpeedup = float64(rows[0].FlatTime) / float64(row.FlatTime)
			row.RTreeSpeedup = float64(rows[0].RTreeTime) / float64(row.RTreeTime)
		} else {
			row.FlatSpeedup, row.RTreeSpeedup = 1, 1
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// E7Table renders the rows.
func E7Table(rows []E7Row) *stats.Table {
	tb := stats.NewTable("E7 (north star): batched concurrent range queries — worker sweep, identical output per row",
		"workers", "FLAT time", "FLAT speedup", "R-tree time", "R-tree speedup", "pages", "results")
	for _, r := range rows {
		tb.AddRow(
			r.Workers,
			stats.Dur(r.FlatTime),
			fmt.Sprintf("%.2fx", r.FlatSpeedup),
			stats.Dur(r.RTreeTime),
			fmt.Sprintf("%.2fx", r.RTreeSpeedup),
			r.PagesRead,
			r.Results,
		)
	}
	return tb
}
