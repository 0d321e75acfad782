package main

import (
	"math/rand"
	"time"

	"neurospatial/internal/circuit"
	"neurospatial/internal/core"
	"neurospatial/internal/geom"
	"neurospatial/internal/pager"
	"neurospatial/internal/prefetch"
	"neurospatial/internal/query"
	"neurospatial/internal/scout"
)

// Walkthrough shape: the explorer's default stride and query radius, served
// by FLAT (the paper's configuration) through a buffer pool of walkPoolPages
// pages, smaller than a walk's working set so the LRU evicts.
const (
	walkStride     = 8.0
	walkRadius     = 15.0
	walksPerNeuron = 4
	walkPoolPages  = 32
)

func exploreConfig() core.ExploreConfig {
	return core.ExploreConfig{Stride: walkStride, Radius: walkRadius, PoolPages: walkPoolPages, Index: "flat"}
}

// walk is one followed branch: stem to tip.
type walk struct {
	neuron int32
	branch int
}

// pickWalks returns, for every neuron in turn, walksPerNeuron stem-to-tip
// paths drawn at random from its terminal branches.
func pickWalks(c *circuit.Circuit, rng *rand.Rand) []walk {
	var out []walk
	for ni, m := range c.Morphologies {
		tips := m.Terminals()
		rng.Shuffle(len(tips), func(a, b int) { tips[a], tips[b] = tips[b], tips[a] })
		n := 0
		for _, tip := range tips {
			if n == walksPerNeuron {
				break
			}
			if p, err := c.BranchPath(int32(ni), tip); err == nil && len(p) >= 2 {
				out = append(out, walk{int32(ni), tip})
				n++
			}
		}
	}
	return out
}

// timedScout wraps SCOUT behind the prefetch.Prefetcher interface. The time
// between one Predict's return and the next Predict's entry is the step's
// query (the range read through the pool); traced, it also times Predict
// itself and reads SCOUT's candidate count.
type timedScout struct {
	inner  *scout.Scout
	last   time.Time
	steps  *series
	traced bool

	predict    time.Duration
	calls      int64
	candidates int64
	predicted  int64
}

func (t *timedScout) Name() string { return t.inner.Name() }

func (t *timedScout) Reset() {
	t.inner.Reset()
	t.last = time.Now()
}

func (t *timedScout) Predict(ctx *prefetch.Context, q geom.AABB, result []int32, budget int) []pager.PageID {
	t0 := time.Now()
	t.steps.add(t0.Sub(t.last))
	p := t.inner.Predict(ctx, q, result, budget)
	if t.traced {
		t.predict += time.Since(t0)
		t.calls++
		t.candidates += int64(t.inner.LastCandidateCount())
		n := len(p)
		if n > budget {
			n = budget
		}
		t.predicted += int64(n)
	}
	t.last = time.Now()
	return p
}

// walker runs SCOUT walkthroughs through core.Model.Explore, cycling over a
// fixed walk list.
type walker struct {
	m     *core.Model
	walks []walk
	trace bool

	steps     series
	sc        *timedScout
	elements  []int64  // per walk, from the first pass
	stepRange [][2]int // per walk, its samples in steps in the first pass
	firstDone bool
	demand    int64
	stepsN    int64
	qps       rate
	attempted int
	failed    int

	// prefetch counts of the traced walks; steps and time by mode (plain,
	// traced) for the trace overhead
	prefetchReads, prefetchHits int64
	modeSteps                   [2]int64
	modeTime                    [2]time.Duration
}

func newWalker(m *core.Model, walks []walk, trace bool) *walker {
	w := &walker{m: m, walks: walks, trace: trace, elements: make([]int64, len(walks)),
		stepRange: make([][2]int, len(walks))}
	w.sc = &timedScout{inner: scout.New(scout.Options{}), steps: &w.steps}
	return w
}

// run explores walks until stop reports true. Every walk starts on a cold
// pool, so its element count and demand reads repeat exactly; the first pass
// over the list fixes them and every later pass must agree, traced or not.
func (w *walker) run(stop func(i int) bool) {
	cfg := exploreConfig()
	w.qps.begin()
	defer w.qps.stop()
	for i := 0; !stop(i); i++ {
		wi := i % len(w.walks)
		wk := w.walks[wi]
		// Alternate traced and plain walks, shifting by one every pass so
		// each walk runs both ways.
		mode := 0
		if w.trace {
			mode = (i + i/len(w.walks)) % 2
		}
		w.sc.traced = mode == 1
		w.attempted++
		lo := w.steps.n()
		t0 := time.Now()
		run, err := w.m.Explore(wk.neuron, wk.branch, w.sc, cfg)
		d := time.Since(t0)
		if err != nil {
			w.failed++
			w.steps.fail()
			continue
		}
		w.modeSteps[mode] += int64(len(run.Steps))
		w.modeTime[mode] += d
		if mode == 1 {
			w.prefetchReads += run.PrefetchReads
			w.prefetchHits += run.PrefetchHits
		}
		first := !w.firstDone
		if first {
			w.elements[wi] = run.Elements
			w.stepRange[wi] = [2]int{lo, w.steps.n()}
			w.demand += run.DemandReads
			w.stepsN += int64(len(run.Steps))
			if wi == len(w.walks)-1 {
				w.firstDone = true
			}
		} else if run.Elements != w.elements[wi] {
			w.markFailed(lo, w.steps.n())
		}
		w.qps.done(len(run.Steps))
	}
}

func (w *walker) markFailed(lo, hi int) {
	w.failed++
	for j := lo; j < hi; j++ {
		w.steps.us[j] = failedLatency
	}
}

// verify recomputes the first pass's per-walk element counts with the
// oracle: the walk's query boxes, each counted by box intersection.
func (w *walker) verify(o *oracle) {
	for wi, wk := range w.walks {
		if w.stepRange[wi] == [2]int{} {
			continue // not reached in the first pass
		}
		path, err := w.m.Circuit.BranchPath(wk.neuron, wk.branch)
		if err != nil {
			w.markFailed(w.stepRange[wi][0], w.stepRange[wi][1])
			continue
		}
		seq, err := query.Walkthrough(path, walkStride, walkRadius)
		if err != nil {
			w.markFailed(w.stepRange[wi][0], w.stepRange[wi][1])
			continue
		}
		var want int64
		for _, s := range seq.Steps {
			want += o.rangeCount(s.Box)
		}
		if want != w.elements[wi] {
			w.markFailed(w.stepRange[wi][0], w.stepRange[wi][1])
		}
	}
}
