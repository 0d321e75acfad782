package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"neurospatial/internal/engine"
	"neurospatial/internal/flat"
	"neurospatial/internal/geom"
	"neurospatial/internal/hilbert"
	"neurospatial/internal/pager"
	"neurospatial/internal/rtree"
	"neurospatial/internal/stats"
)

// E11Config parameterizes the streaming result-path experiment: a range query
// whose result is the (near-)whole item set — the million-hit regime — served
// both as a full drain and as a Limit-10 first page through the lazy iterator
// pipeline. The point is the two guarantees of the streaming redesign: a
// limited page allocates O(Limit), not O(result size), and it provably stops
// reading pages once the limit is filled — on every contender, with the page
// reads counted by an independent pager.Counting tap, not just the indexes'
// own stats. It is not a figure of the paper; it extends the reproduction
// along the ROADMAP's interactive-exploration axis (the demo's progressive
// result panels want first pages, not full drains).
type E11Config struct {
	// Items is the item count (the full-result size target).
	Items int
	// Edge is the volume edge.
	Edge float64
	// HalfMin and HalfMax bound the item half-extents.
	HalfMin, HalfMax float64
	// Limit is the page size of the limited request.
	Limit int
	// PageSize is the contenders' disk-page capacity.
	PageSize int
	// Seed drives item placement.
	Seed int64
}

// DefaultE11 returns the configuration used in EXPERIMENTS.md: one million
// items, so the full range drain is a million-hit result.
func DefaultE11() E11Config {
	return E11Config{
		Items:    1_000_000,
		Edge:     1000,
		HalfMin:  0.5,
		HalfMax:  2,
		Limit:    10,
		PageSize: 64,
		Seed:     29,
	}
}

// E11Row is one contender's full-drain versus first-page comparison.
type E11Row struct {
	// Contender names the index.
	Contender string
	// Hits is the full result size.
	Hits int64
	// FullReads and LimitReads are the page reads of the full drain and the
	// Limit page, counted by the independent tap (the runner fails unless
	// LimitReads < FullReads, strictly, and the stats agree in direction).
	FullReads, LimitReads int64
	// ResumeReads is the tap count of the second page (cursor resume) — the
	// proof that resuming does not restart the scan.
	ResumeReads int64
	// FullAllocMB and LimitAllocKB are the heap bytes allocated by the two
	// executions (note the units: the full drain buffers the result, the
	// limited page stays O(Limit)).
	FullAllocMB, LimitAllocKB float64
	// FullTime and LimitTime are wall-clock times of the two executions.
	FullTime, LimitTime time.Duration
}

// hilbertItems scatters cfg.Items boxes in the volume and assigns IDs in
// Hilbert order of the centers, so the dataset's ID order correlates with
// every contender's spatial layout — the regime where ascending-ID streaming
// and spatial page locality compose instead of fighting.
func hilbertItems(cfg E11Config) []rtree.Item {
	rng := newRand(cfg.Seed)
	vol := geom.Box(geom.V(0, 0, 0), geom.V(cfg.Edge, cfg.Edge, cfg.Edge))
	curve := hilbert.MustNew(10, vol)
	type placed struct {
		box geom.AABB
		key uint64
	}
	ps := make([]placed, cfg.Items)
	for i := range ps {
		c := geom.V(rng.Float64()*cfg.Edge, rng.Float64()*cfg.Edge, rng.Float64()*cfg.Edge)
		h := cfg.HalfMin + rng.Float64()*(cfg.HalfMax-cfg.HalfMin)
		ps[i] = placed{box: geom.BoxAround(c, h), key: curve.Index(c)}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].key < ps[b].key })
	items := make([]rtree.Item, len(ps))
	for i, p := range ps {
		items[i] = rtree.Item{ID: int32(i), Box: p.box}
	}
	return items
}

// allocDuring reports the heap bytes allocated while fn runs (single-threaded
// measurement; the experiment harness runs serially).
func allocDuring(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// RunE11 executes the streaming sweep over all four contenders.
func RunE11(cfg E11Config) ([]E11Row, error) {
	if cfg.Items <= 0 || cfg.Limit <= 0 {
		return nil, fmt.Errorf("experiments: E11: Items and Limit must be positive")
	}
	items := hilbertItems(cfg)
	// Interior box missing a thin shell: virtually every item hits, and the
	// query is a genuine range (not the trivial whole-bounds scan).
	margin := cfg.Edge * 0.01
	query := engine.RangeRequest(geom.Box(
		geom.V(margin, margin, margin),
		geom.V(cfg.Edge-margin, cfg.Edge-margin, cfg.Edge-margin)))

	contenders := []engine.SpatialIndex{
		engine.NewFlat(flat.Options{PageSize: cfg.PageSize}),
		engine.NewRTree(0),
		engine.NewGrid(engine.GridOptions{PageSize: cfg.PageSize}),
		engine.NewSharded(engine.ShardedOptions{Flat: flat.Options{PageSize: cfg.PageSize}}),
	}
	var rows []E11Row
	for _, ix := range contenders {
		if err := ix.Build(items); err != nil {
			return nil, fmt.Errorf("experiments: E11: building %s: %w", ix.Name(), err)
		}
		row, err := e11Contender(ix, query, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// e11Contender measures one built contender: full scan, limited page, and
// cursor resume, each read through a counting tap the session carries.
// Factored out of RunE11 so the session pin unwinds on every exit path.
func e11Contender(ix engine.SpatialIndex, query engine.Request, cfg E11Config) (E11Row, error) {
	pg, ok := ix.(engine.Paged)
	if !ok {
		return E11Row{}, fmt.Errorf("experiments: E11: %s is not Paged", ix.Name())
	}
	tap := pager.NewCounting(pg.Store())
	sess, err := engine.Open(engine.WithIndex(ix), engine.WithPageSource(tap))
	if err != nil {
		return E11Row{}, err
	}
	defer sess.Close()

	limited := query
	limited.Limit = cfg.Limit
	// Warm-up: derive the lazy zone maps outside the measured runs.
	if _, err := sess.Do(context.Background(), limited); err != nil {
		return E11Row{}, err
	}

	row := E11Row{Contender: ix.Name()}
	tap.Reset()
	var full engine.Result
	t0 := time.Now()
	fullAlloc := allocDuring(func() {
		full, err = sess.Do(context.Background(), query)
	})
	row.FullTime = time.Since(t0)
	if err != nil {
		return E11Row{}, err
	}
	row.Hits = int64(len(full.Hits))
	row.FullReads = tap.Reads()
	row.FullAllocMB = float64(fullAlloc) / (1 << 20)

	tap.Reset()
	var page engine.Result
	t0 = time.Now()
	limAlloc := allocDuring(func() {
		page, err = sess.Do(context.Background(), limited)
	})
	row.LimitTime = time.Since(t0)
	if err != nil {
		return E11Row{}, err
	}
	row.LimitReads = tap.Reads()
	row.LimitAllocKB = float64(limAlloc) / (1 << 10)

	// The early-stop guarantee, proven on the independent tap: the
	// limited page must have stopped reading pages, strictly.
	if len(page.Hits) != cfg.Limit {
		return E11Row{}, fmt.Errorf("experiments: E11: %s limited page returned %d hits, want %d",
			ix.Name(), len(page.Hits), cfg.Limit)
	}
	if row.LimitReads >= row.FullReads {
		return E11Row{}, fmt.Errorf("experiments: E11: %s Limit %d read %d pages, full scan %d — no early stop",
			ix.Name(), cfg.Limit, row.LimitReads, row.FullReads)
	}
	if page.Cursor == "" {
		return E11Row{}, fmt.Errorf("experiments: E11: %s limited page returned no cursor", ix.Name())
	}

	// Cursor resume: the second page reads from where the first stopped,
	// not from the start of the scan.
	resume := limited
	resume.Cursor = page.Cursor
	tap.Reset()
	if _, err := sess.Do(context.Background(), resume); err != nil {
		return E11Row{}, err
	}
	row.ResumeReads = tap.Reads()
	if row.ResumeReads >= row.FullReads {
		return E11Row{}, fmt.Errorf("experiments: E11: %s cursor resume read %d pages, full scan %d — resume restarted the scan",
			ix.Name(), row.ResumeReads, row.FullReads)
	}
	return row, nil
}

// RunPagingDemo issues one planner-routed request of the named kind with the
// given page size and walks its cursor chain — the cmd drivers' -limit/-cursor
// demo. A non-empty cursor resumes from a token printed by a previous run:
// the demo model is deterministic, so tokens stay valid across invocations.
func RunPagingDemo(kindName string, k int, radius float64, limit int, cursor string, workers int) (*stats.Table, error) {
	kind, err := engine.ParseKind(kindName)
	if err != nil {
		return nil, err
	}
	if limit <= 0 {
		return nil, fmt.Errorf("experiments: paging demo: -limit must be positive, got %d", limit)
	}
	m, err := buildModel(96, 300, 23, workers)
	if err != nil {
		return nil, fmt.Errorf("experiments: paging demo: %w", err)
	}
	c := m.Circuit.Params.Volume.Center()
	var req engine.Request
	switch kind {
	case engine.Range:
		req = engine.RangeRequest(geom.BoxAround(c, radius))
	case engine.KNN:
		req = engine.KNNRequest(c, k)
	case engine.Point:
		req = engine.PointRequest(c)
	case engine.WithinDistance:
		req = engine.WithinDistanceRequest(c, radius)
	default:
		return nil, fmt.Errorf("experiments: paging demo: unsupported kind %s", kind)
	}
	req.Limit = limit
	req.Cursor = engine.Cursor(cursor)

	tb := stats.NewTable(fmt.Sprintf("paging demo: %s in pages of %d through the Session front door"+
		"\n(each page stops reading once filled; pass the cursor to resume)", kind, limit),
		"page", "routed to", "hits", "pages read", "next cursor")
	const maxPages = 8
	for page := 1; ; page++ {
		res, err := m.Do(context.Background(), req)
		if err != nil {
			return nil, err
		}
		next := string(res.Cursor)
		if next == "" {
			next = "(exhausted)"
		}
		tb.AddRow(page, res.Index, len(res.Hits), res.Stats.PagesRead, next)
		if res.Cursor == "" || page == maxPages {
			break
		}
		req.Cursor = res.Cursor
	}
	return tb, nil
}

// E11Table renders the sweep.
func E11Table(rows []E11Row) *stats.Table {
	tb := stats.NewTable("E11: streaming first page vs full drain (lazy iterator pipeline)"+
		"\n(page reads counted by an independent source tap; alloc units differ on purpose)",
		"contender", "hits", "full pages", "limit pages", "resume pages",
		"full alloc MB", "limit alloc KB", "full time", "limit time")
	for _, r := range rows {
		tb.AddRow(r.Contender, r.Hits, r.FullReads, r.LimitReads, r.ResumeReads,
			fmt.Sprintf("%.1f", r.FullAllocMB), fmt.Sprintf("%.1f", r.LimitAllocKB),
			stats.Dur(r.FullTime), stats.Dur(r.LimitTime))
	}
	return tb
}
