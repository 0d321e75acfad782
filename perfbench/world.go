package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"neurospatial/internal/circuit"
	"neurospatial/internal/core"
	"neurospatial/internal/engine"
	"neurospatial/internal/geom"
	"neurospatial/internal/rtree"
)

// contenders are the four engine indexes every dataset serves; the
// snapshot planner routes each request to one of them.
var contenders = []string{"flat", "rtree", "grid", "sharded"}

// datasetOptions is the durable dataset configuration as shipped: all four
// contenders, default page size and compaction trigger, and the WAL's
// fsync on every commit.
func datasetOptions() engine.DatasetOptions {
	return engine.DatasetOptions{Contenders: contenders}
}

// world is one workload's tissue: the generated circuit, the walkthrough
// model over it and the durable dataset holding the same segments.
type world struct {
	circ  *circuit.Circuit
	items []rtree.Item
	reqs  []engine.Request
	model *core.Model
	dir   string
	dd    *engine.DurableDataset
}

// setupTimes are the timed steps of one set-up.
type setupTimes struct {
	circuit, model, create, open, warm time.Duration
}

// total is the set-up time: the sum of its timed steps. Drawing the request
// pool from the circuit is input generation, not set-up, and is left out.
func (t setupTimes) total() time.Duration {
	return t.circuit + t.model + t.create + t.open + t.warm
}

// tissueSeed generates the benchmark's tissue. The tissue and the warm-up
// that calibrates the snapshot planner are the same in every run; --seed
// draws what is measured on them: the requests, the commit batches and the
// walks. (The planner routes each request kind by probing the first request
// of that kind, so a tissue and warm-up drawn per run routed kinds to
// different contenders from run to run, which alone moved a kind's median
// latency by a third.)
const tissueSeed = 1

// circuitParams returns the layered (skewed-density) circuit of the given
// size.
func circuitParams(neurons int, edge float64, seed int64) circuit.Params {
	p := circuit.DefaultParams()
	p.Neurons = neurons
	p.Volume = geom.Box(geom.V(0, 0, 0), geom.V(edge, edge, edge))
	p.Layers = circuit.CorticalLayers()
	p.Seed = seed
	return p
}

// buildWorld runs one full set-up in dir: circuit generation, the
// walkthrough model, CreateDataset, Close, a cold OpenDataset, and the
// warm-up that faults every page in and routes a fixed request pool once.
// The measured request pool is drawn from seed.
func buildWorld(cfg sizeConfig, seed int64, dir string) (*world, setupTimes, error) {
	var t setupTimes
	t0 := time.Now()
	c, err := circuit.Build(circuitParams(cfg.Neurons, cfg.Edge, tissueSeed))
	if err != nil {
		return nil, t, err
	}
	items := make([]rtree.Item, len(c.Elements))
	for i := range c.Elements {
		items[i] = rtree.Item{Box: c.Elements[i].Bounds(), ID: c.Elements[i].ID}
	}
	t.circuit = time.Since(t0)
	warm := genRequests(items, rand.New(rand.NewSource(tissueSeed)))
	reqs := genRequests(items, rand.New(rand.NewSource(seed)))

	t0 = time.Now()
	m, err := core.NewModel(c, core.DefaultOptions())
	if err != nil {
		return nil, t, err
	}
	t.model = time.Since(t0)

	t0 = time.Now()
	created, err := engine.CreateDataset(dir, items, datasetOptions())
	if err != nil {
		return nil, t, err
	}
	if err := created.Close(); err != nil {
		return nil, t, err
	}
	t.create = time.Since(t0)

	t0 = time.Now()
	dd, err := engine.OpenDataset(dir)
	if err != nil {
		return nil, t, err
	}
	t.open = time.Since(t0)

	t0 = time.Now()
	if err := warmUp(dd, warm); err != nil {
		dd.Close()
		return nil, t, err
	}
	t.warm = time.Since(t0)
	return &world{circ: c, items: items, reqs: reqs, model: m, dir: dir, dd: dd}, t, nil
}

// warmUp faults every page of every contender's on-disk segment in (one
// whole-volume range per snapshot view) and routes the request pool once
// through a session, so plans are cached and calibration probes are done.
func warmUp(dd *engine.DurableDataset, reqs []engine.Request) error {
	ctx := context.Background()
	snap := dd.Current()
	all := engine.RangeRequest(snap.Bounds().Expand(1))
	for _, v := range snap.Indexes() {
		if _, err := v.Do(ctx, all, nil); err != nil {
			return fmt.Errorf("warm-up %s: %w", v.Name(), err)
		}
	}
	sess, err := engine.Open(engine.WithDataset(dd.Dataset))
	if err != nil {
		return err
	}
	defer sess.Close()
	for _, r := range reqs {
		if _, err := sess.Do(ctx, r); err != nil {
			return fmt.Errorf("warm-up %v: %w", r, err)
		}
	}
	return nil
}

// setUp builds the world reps times, each in a fresh directory under root,
// keeps the last and reports every repetition's timings.
func setUp(cfg sizeConfig, seed int64, root string, reps int) (*world, []setupTimes, error) {
	var all []setupTimes
	var w *world
	for i := 0; i < reps; i++ {
		if w != nil {
			w.close()
			w = nil
		}
		runtime.GC()
		nw, t, err := buildWorld(cfg, seed, filepath.Join(root, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		w = nw
		all = append(all, t)
	}
	return w, all, nil
}

// close releases the world's dataset and deletes its directory.
func (w *world) close() {
	if w.dd != nil {
		w.dd.Close()
	}
	os.RemoveAll(w.dir)
}
