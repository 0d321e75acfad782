package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// sizeConfig is the generated circuit's size.
type sizeConfig struct {
	Neurons int
	Edge    float64
}

type phase int

const (
	primaryChurn phase = iota
	primaryWalks
)

// workload is one benchmark input. Its primary phase runs for the measured
// window; the fixed-size tail phases after it measure the end-to-end metrics
// the primary phase does not exercise, so every workload reports every
// metric.
type workload struct {
	name    string
	size    sizeConfig
	primary phase
}

var workloads = []workload{
	{name: "churn-durable", size: sizeConfig{Neurons: 384, Edge: 400}, primary: primaryChurn},
	{name: "explore-walk", size: sizeConfig{Neurons: 384, Edge: 400}, primary: primaryWalks},
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// lifecycleCycle is the cycle of the lifecycle tails: a 32-op batch
// (20 inserts, 6 deletes, 6 updates) due every 8 ms, 150 of them before the
// checkpoint and 30 after it.
var lifecycleCycle = cycleConfig{Commits: 150, Tail: 30, Interval: 8 * time.Millisecond,
	Inserts: 20, Deletes: 6, Updates: 6}

// churnCycle is the cycle of churn-durable's window: the same batches, due
// every 16 ms. Every commit starts a new epoch, on which the reader opens a
// fresh session and calibrates a fresh planner, and each reopen leaves the
// segments cold; the interval sets how much of the reader's time goes to
// that. At 8 ms the reader's throughput moved twice as much as its
// latencies with the machine's speed between runs.
var churnCycle = cycleConfig{Commits: 150, Tail: 30, Interval: 16 * time.Millisecond,
	Inserts: 20, Deletes: 6, Updates: 6}

// Tail phase sizes: lifecycle cycles, requests (a quarter of each kind) and
// walks (the first tailWalks of the walk list). probeSet is the number of
// requests timed on the snapshot view around each traced checkpoint.
const (
	tailCycles = 10
	tailReads  = 240000
	tailWalks  = 512
	probeSet   = 64
)

// cycleOverhead is a lifecycle cycle's time beside its commit schedule:
// the checkpoint and the reopens.
const cycleOverhead = 1500 * time.Millisecond

// windowCycles is the number of lifecycle cycles that fill the window at
// their nominal length. Churn-durable runs that many whole cycles rather
// than stopping on the clock: the dataset grows from cycle to cycle, so a
// run that fitted one cycle more would measure a bigger dataset.
func windowCycles(window time.Duration, cfg cycleConfig) int {
	nominal := time.Duration(cfg.Commits+cfg.Tail)*cfg.Interval + cycleOverhead
	return max(1, int(window/nominal))
}

// measurements are one run's metric values and operation counts.
type measurements struct {
	values    map[string]float64
	attempted int
	failed    int
}

func (wl workload) execute(o runOptions, root string, out io.Writer) (*measurements, error) {
	w, times, err := setUp(wl.size, o.seed, root, o.setups)
	if err != nil {
		return nil, err
	}
	h := &dsHandle{dd: w.dd}
	defer func() {
		w.dd = h.dd
		w.close()
	}()
	fmt.Fprintf(out, "data: %d segments, %d neurons\n", len(w.items), wl.size.Neurons)

	runtime.GC()
	epoch0 := time.Now()
	rd := newReader(h, w.reqs, o.trace)
	cfg := o.cycle
	if wl.primary == primaryChurn {
		cfg = o.churnCycle
	}
	lc, err := newLifecycle(h, w.items, w.reqs[:probeSet], cfg, o.seed, o.trace)
	if err != nil {
		return nil, err
	}
	wk := newWalker(w.model, pickWalks(w.circ, rand.New(rand.NewSource(o.seed))), o.trace)
	// Every phase starts from a collected heap, so the garbage of the one
	// before does not land in it.
	tailPass := func(i int) bool { return i >= tailWalks }
	tailWalk := func() {
		runtime.GC()
		wk.run(tailPass)
	}
	cycles := func(n int) {
		runtime.GC()
		for c := 0; c < n; c++ {
			if lc.cycle() != nil {
				return
			}
		}
	}

	switch wl.primary {
	case primaryChurn:
		// The reader and the committer share one goroutine: the reader
		// issues requests while it waits for the next commit to fall due.
		// Two busy goroutines and the collector on a machine of two or so
		// cores measured the scheduler more than the engine.
		rd.cycle = &lc.cycles
		lc.idle = func(due time.Time) time.Time {
			if !time.Now().Before(due) {
				return time.Time{}
			}
			var end time.Time
			rd.run(epoch0, func(int) bool {
				end = time.Now()
				return !end.Before(due)
			})
			return end
		}
		for c := 0; c < windowCycles(o.window, cfg); c++ {
			if lc.cycle() != nil {
				break
			}
		}
		lc.idle = nil
		tailWalk()
	case primaryWalks:
		deadline := time.Now().Add(o.window)
		wk.run(func(i int) bool { return time.Now().After(deadline) && i >= len(wk.walks) })
		runtime.GC()
		rd.run(epoch0, func(i int) bool { return i >= tailReads })
		cycles(tailCycles)
	}

	rd.verifyAgainst(w.items, lc.log)
	wk.verify(newOracle(w.items))

	m := &measurements{values: map[string]float64{}}
	names := []string{"range", "knn", "point", "within"}
	for k, n := range names {
		m.attempted += rd.attempted[k]
		m.failed += rd.failed[k]
		fmt.Fprintf(out, "ops %-10s attempted %7d failed %d\n", n, rd.attempted[k], rd.failed[k])
	}
	m.attempted += lc.attempted + wk.attempted
	m.failed += lc.failed + wk.failed
	fmt.Fprintf(out, "ops %-10s attempted %7d failed %d\n", "lifecycle", lc.attempted, lc.failed)
	fmt.Fprintf(out, "ops %-10s attempted %7d failed %d\n", "walk", wk.attempted, wk.failed)
	for _, e := range lc.errs {
		fmt.Fprintf(out, "lifecycle error: %v\n", e)
	}
	fmt.Fprintf(out, "commit generator lag: p50 %.1f us, p99 %.1f us over %d commits\n",
		lc.lag.p50(), lc.lag.p99(), lc.lag.n())
	fmt.Fprintf(out, "checkpoints (s): %.3f, median %.4f (not gated: see README.md)\nreopens (s): %.3f\n",
		lc.checkpoints, median(lc.checkpoints), lc.reopens)

	if o.trace {
		perLayerValues(m.values, times, rd, lc, wk, wl.primary, out)
		if err := writeSpans(filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.jsonl", wl.name, o.seed)), rd.lt.spans); err != nil {
			return nil, err
		}
		return m, nil
	}

	v := m.values
	var setup []float64
	for _, t := range times {
		setup = append(setup, t.total().Seconds())
	}
	v["setup_s"] = median(setup)
	switch wl.primary {
	case primaryWalks:
		v["query_qps"] = wk.qps.value()
		v["range_p50_us"], v["range_p99_us"] = wk.steps.p50(), wk.steps.p99()
	default:
		// A churn run holds a few lifecycle cycles, and its reading differs
		// from cycle to cycle and within one (cold after each reopen, a
		// fresh plan on each epoch), so the rate over the whole window is
		// steadier than a median of chunk rates.
		v["query_qps"] = rd.qps.overall()
		v["range_p50_us"], v["range_p99_us"] = rd.lat[0].p50(), rd.lat[0].p99()
	}
	v["knn_p50_us"], v["knn_p99_us"] = rd.lat[1].p50(), rd.lat[1].p99()
	v["point_p50_us"], v["point_p99_us"] = rd.lat[2].p50(), rd.lat[2].p99()
	v["within_p50_us"], v["within_p99_us"] = rd.lat[3].p50(), rd.lat[3].p99()
	v["commit_p50_us"], v["commit_p90_us"] = lc.commit.p50(), lc.commit.quantile(0.90)
	v["reopen_s"] = median(lc.reopens)
	v["demand_pages_per_step"] = ratio(float64(wk.demand), float64(wk.stepsN))
	v["mem_peak_mb"] = peakRSSMB()
	fmt.Fprintf(out, "commit p99 (not gated: host stalls decide it): %.1f us\n", lc.commit.p99())
	fmt.Fprintf(out, "samples: range %d, knn %d, point %d, within %d, walk steps %d, commits %d, checkpoints %d, reopens %d\n",
		rd.lat[0].n(), rd.lat[1].n(), rd.lat[2].n(), rd.lat[3].n(), wk.steps.n(), lc.commit.n(),
		len(lc.checkpoints), len(lc.reopens))
	return m, nil
}

// perLayerValues fills the per-layer metrics of a traced run.
func perLayerValues(v map[string]float64, times []setupTimes, rd *reader, lc *lifecycle, wk *walker, primary phase, out io.Writer) {
	pick := func(f func(setupTimes) time.Duration) float64 {
		var xs []float64
		for _, t := range times {
			xs = append(xs, f(t).Seconds())
		}
		return median(xs)
	}
	v["circuit.build_s"] = pick(func(t setupTimes) time.Duration { return t.circuit })
	v["core.model_s"] = pick(func(t setupTimes) time.Duration { return t.model })
	v["engine.dataset.create_s"] = pick(func(t setupTimes) time.Duration { return t.create })
	v["engine.dataset.open_s"] = pick(func(t setupTimes) time.Duration { return t.open })
	v["setup.warm_s"] = pick(func(t setupTimes) time.Duration { return t.warm })

	lt := &rd.lt
	// The layer sum: Session.Do's mean in the plain blocks against its
	// traced parts, each plan-cache outcome's parts weighted by that
	// outcome's share of the plain blocks.
	var n, plainN, expected, plainSum float64
	var route, view, mat time.Duration
	for p := 0; p < 2; p++ {
		route += lt.route[p]
		view += lt.view[p]
		mat += lt.materialize[p]
		n += float64(lt.tracedDoN[p])
		if lt.tracedDoN[p] == 0 {
			continue
		}
		parts := micros(lt.route[p]+lt.view[p]+lt.materialize[p]) / float64(lt.tracedDoN[p])
		expected += float64(lt.plainDoN[p]) * parts
		plainN += float64(lt.plainDoN[p])
		plainSum += micros(lt.plainDo[p])
	}
	plainMean := ratio(plainSum, plainN)
	parts := ratio(expected, plainN)
	v["engine.session.do_us"] = ratio(micros(lt.plainDo[0]+lt.plainDo[1]), float64(lt.plainDoN[0]+lt.plainDoN[1]))
	v["engine.session.materialize_us"] = ratio(micros(mat), n)
	v["engine.session.allocs_per_op"] = ratio(float64(lt.allocs), float64(lt.allocOps))
	v["engine.session.bytes_per_op"] = ratio(float64(lt.allocBytes), float64(lt.allocOps))
	v["engine.session.open_us"] = ratio(micros(lt.openTime), float64(lt.opens))
	v["engine.session.opens"] = float64(lt.opens)
	v["engine.session.unattributed_ratio"] = ratio(plainMean-parts, plainMean)
	v["engine.planner.route_us"] = ratio(micros(route), n)

	consult := float64(lt.cacheHits + lt.cacheMisses)
	v["engine.planner.cache_hit_ratio"] = ratio(float64(lt.cacheHits), consult)
	v["engine.planner.consultations"] = consult
	var probes int64
	for p := range lt.planners {
		probes += p.ProbesRun()
	}
	v["engine.planner.probes_per_epoch"] = ratio(float64(probes), float64(len(lt.planners)))

	var queries int
	for _, c := range lt.perIndexN {
		queries += c
	}
	q := float64(queries)
	v["engine.snapshot.pending"] = ratio(float64(lt.pending), q)
	v["engine.snapshot.delta_entries_per_query"] = ratio(float64(lt.deltaEntries), q)
	v["engine.snapshot.tombstones_per_query"] = ratio(float64(lt.tombstones), q)
	v["durable.cold_reads_per_query"] = ratio(float64(lt.coldReads), q)
	v["durable.fault_us_per_page"] = ratio(micros(lt.faultExtra), float64(lt.faultPages))
	for _, name := range contenders {
		c := float64(lt.perIndexN[name])
		v["engine.planner.share."+name] = ratio(c, q)
		v[name+".queries"] = c
		v[name+".do_us"] = ratio(micros(lt.viewDo[name]), float64(lt.viewDoN[name]))
		st := lt.perIndex[name]
		v[name+".pages_per_query"] = ratio(float64(st.PagesRead), c)
		v[name+".index_reads_per_query"] = ratio(float64(st.IndexReads), c)
		v[name+".tested_per_hit"] = ratio(float64(st.EntriesTested), float64(st.Results))
	}
	v["flat.reseeds_per_query"] = ratio(float64(lt.perIndex["flat"].Reseeds), float64(lt.perIndexN["flat"]))
	v["sharded.shards_per_query"] = ratio(float64(lt.perIndex["sharded"].ShardsTouched), float64(lt.perIndexN["sharded"]))

	l := &lc.lt
	commits := float64(l.commits)
	v["engine.dataset.commits"] = commits
	v["engine.dataset.apply_us"] = ratio(micros(l.apply), commits)
	v["durable.wal_append_us"] = ratio(micros(l.walAppend), commits)
	v["pager.cow.patched_per_commit"] = ratio(float64(l.cow.patched), commits)
	v["pager.cow.appended_per_commit"] = ratio(float64(l.cow.appended), commits)
	v["pager.cow.shared_ratio"] = ratio(float64(l.cow.shared), float64(l.cow.shared+l.cow.patched+l.cow.appended))
	v["durable.wal_bytes_per_commit"] = ratio(float64(l.walBytes), commits)
	v["durable.wal_bytes_per_user_byte"] = ratio(float64(l.walBytes), float64(l.userBytes))
	v["engine.dataset.autocompactions"] = float64(l.autoCompactions)
	ck := float64(l.ckpts)
	v["engine.dataset.compact_us"] = ratio(micros(l.compact), ck)
	v["durable.checkpoint_write_us"] = ratio(micros(l.ckptWrite), ck)
	v["durable.checkpoint_bytes"] = ratio(float64(l.ckptBytes), ck)
	v["engine.snapshot.overlay_us"] = ratio(micros(l.overlayBefore-l.overlayAfter), float64(l.overlayProbes))
	v["engine.snapshot.overlay_pending"] = ratio(float64(l.overlayPending), float64(l.overlayProbes))
	v["durable.space_amp"] = ratio(l.spaceAmp, float64(l.closes))
	ro := float64(l.reopens)
	v["durable.read_manifest_us"] = ratio(micros(l.readManifest), ro)
	v["durable.read_snapshot_us"] = ratio(micros(l.readSnap), ro)
	v["durable.open_pagefile_us"] = ratio(micros(l.openPageFile), ro)
	v["engine.dataset.thaw_replay_us"] = ratio(micros(l.thaw), ro)
	v["durable.replay_records"] = ratio(float64(l.replayRecords), ro)
	v["durable.open_reads"] = float64(l.openReads)
	v["bench.commit_lag_p99_us"] = lc.lag.p99()

	sc := wk.sc
	v["scout.predict_us"] = ratio(micros(sc.predict), float64(sc.calls))
	v["scout.candidates_per_step"] = ratio(float64(sc.candidates), float64(sc.calls))
	v["prefetch.predicted_per_step"] = ratio(float64(sc.predicted), float64(sc.calls))
	v["prefetch.reads_per_step"] = ratio(float64(wk.prefetchReads), float64(wk.modeSteps[1]))
	v["prefetch.accuracy"] = ratio(float64(wk.prefetchHits), float64(wk.prefetchReads))
	v["prefetch.prefetch_reads"] = float64(wk.prefetchReads)

	var over float64
	if primary == primaryWalks {
		over = ratio(ratio(float64(wk.modeSteps[0]), wk.modeTime[0].Seconds()),
			ratio(float64(wk.modeSteps[1]), wk.modeTime[1].Seconds()))
	} else {
		plainOps := float64(lt.modeOps[0] + lt.modeOps[2])
		plainTime := (lt.modeTime[0] + lt.modeTime[2]).Seconds()
		over = ratio(ratio(plainOps, plainTime), ratio(float64(lt.modeOps[modeTraced]), lt.modeTime[modeTraced].Seconds()))
	}
	v["trace.overhead"] = over

	within := "yes"
	if u := v["engine.session.unattributed_ratio"]; u > 0.10 || u < -0.10 {
		within = "NO"
	}
	fmt.Fprintf(out, "layer sum: untraced Session.Do %.2f us; traced parts %.2f us (per request: route %.2f + view do %.2f + materialize %.2f; %d of %d traced requests missed the plan cache); unattributed %.1f%%, within 10%%: %s\n",
		plainMean, parts, v["engine.planner.route_us"], ratio(micros(view), n), v["engine.session.materialize_us"],
		lt.tracedDoN[1], lt.tracedDoN[0]+lt.tracedDoN[1], 100*v["engine.session.unattributed_ratio"], within)
	fmt.Fprintf(out, "trace overhead: untraced/traced throughput %.3f\n", over)
}

// writeSpans writes the traced requests' spans, one JSON object a line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB returns the process's peak resident memory (VmHWM) in MB, or the
// Go runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
