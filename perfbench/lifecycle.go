package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"neurospatial/internal/durable"
	"neurospatial/internal/engine"
	"neurospatial/internal/geom"
	"neurospatial/internal/rtree"
)

// cycleConfig is one durable lifecycle cycle: Commits batches on a fixed
// schedule, Checkpoint, Tail more batches (left in the WAL), Close, and
// OpenDataset with WAL replay.
type cycleConfig struct {
	Commits  int
	Tail     int
	Interval time.Duration
	// Batch mix per commit.
	Inserts, Deletes, Updates int
}

// userBytesPerOp is a mutation's payload as the user sees it: a 4-byte ID
// and a 48-byte box.
const userBytesPerOp = 52

// lifecycle drives the durable dataset through commit/checkpoint/reopen
// cycles and keeps the committed batches for the oracle.
type lifecycle struct {
	h     *dsHandle
	items []rtree.Item
	probe []engine.Request
	cfg   cycleConfig
	rng   *rand.Rand
	trace bool

	live  []int32
	boxes map[int32]geom.AABB
	log   []batch

	commit      series
	lag         series
	checkpoints []float64
	reopens     []float64
	attempted   int
	failed      int
	errs        []error
	// cycles counts completed cycles; a reader beside the cycles chunks by
	// it.
	cycles int
	// idle, when set, is called before each commit with the time the commit
	// is due. It runs reads until then and returns when the last one ended,
	// or the zero time if it ran none.
	idle func(due time.Time) time.Time

	lt lifeTrace
}

// lifeTrace is the per-layer view of the lifecycle.
type lifeTrace struct {
	twin                   *engine.Dataset
	twinBroken             bool
	apply, walAppend       time.Duration
	commits                int
	cow                    struct{ shared, patched, appended int64 }
	walBytes, userBytes    int64
	autoCompactions        int64
	compact, ckptWrite     time.Duration
	ckptBytes              int64
	ckpts                  int
	spaceAmp               float64
	closes                 int
	readManifest, readSnap time.Duration
	openPageFile, thaw     time.Duration
	replayRecords          int64
	openReads              int64
	reopens                int
	overlayBefore          time.Duration
	overlayAfter           time.Duration
	overlayPending         int64
	overlayProbes          int
	// autoBase is the open dataset's auto-compaction count when it opened.
	autoBase int64
}

func newLifecycle(h *dsHandle, items []rtree.Item, probe []engine.Request, cfg cycleConfig, seed int64, trace bool) (*lifecycle, error) {
	lc := &lifecycle{h: h, items: items, probe: probe, cfg: cfg, rng: rand.New(rand.NewSource(seed)),
		trace: trace, live: make([]int32, 0, len(items)), boxes: make(map[int32]geom.AABB, len(items))}
	for _, it := range items {
		lc.live = append(lc.live, it.ID)
		lc.boxes[it.ID] = it.Box
	}
	if trace {
		twin, err := engine.NewDataset(items, datasetOptions())
		if err != nil {
			return nil, err
		}
		lc.lt.twin = twin
	}
	return lc, nil
}

// takeLive picks a live item for a delete or an update and takes it out
// of the pick list, so one batch never touches an item twice.
func (lc *lifecycle) takeLive() int32 {
	i := lc.rng.Intn(len(lc.live))
	id := lc.live[i]
	lc.live[i] = lc.live[len(lc.live)-1]
	lc.live = lc.live[:len(lc.live)-1]
	return id
}

func (lc *lifecycle) jitter(b geom.AABB, r float64) geom.AABB {
	return b.Translate(geom.V(lc.rng.Float64()*2*r-r, lc.rng.Float64()*2*r-r, lc.rng.Float64()*2*r-r))
}

// commitOne builds one insert/delete/update batch and commits it. The
// inserted boxes are copies of random circuit segments moved by up to 5 µm;
// an update moves a live item by up to 2 µm.
func (lc *lifecycle) commitOne(dd *engine.DurableDataset, from time.Time) {
	lc.attempted++
	tx := dd.Begin()
	var twinTx *engine.Tx
	if lc.lt.twin != nil && !lc.lt.twinBroken {
		twinTx = lc.lt.twin.Begin()
	}
	var ops []mutation
	var kept []int32
	for i := 0; i < lc.cfg.Inserts; i++ {
		box := lc.jitter(lc.items[lc.rng.Intn(len(lc.items))].Box, 5)
		id := tx.Insert(box)
		if twinTx != nil && twinTx.Insert(box) != id {
			lc.lt.twinBroken = true
		}
		ops = append(ops, mutation{kind: opInsert, id: id, box: box})
	}
	for i := 0; i < lc.cfg.Deletes; i++ {
		id := lc.takeLive()
		tx.Delete(id)
		if twinTx != nil {
			twinTx.Delete(id)
		}
		ops = append(ops, mutation{kind: opDelete, id: id})
	}
	for i := 0; i < lc.cfg.Updates; i++ {
		id := lc.takeLive()
		box := lc.jitter(lc.boxes[id], 2)
		tx.Update(id, box)
		if twinTx != nil {
			twinTx.Update(id, box)
		}
		ops = append(ops, mutation{kind: opUpdate, id: id, box: box})
		kept = append(kept, id)
	}

	var walPath string
	var walSize0 int64
	if lc.trace {
		walPath = filepath.Join(dd.Dir(), dd.Manifest().WAL)
		walSize0 = fileSize(walPath)
	}
	epoch := dd.Current().Epoch() + 1
	t0 := time.Now()
	snap, err := tx.Commit()
	durableDur := time.Since(t0)
	// A non-nil snapshot means the batch is applied, even alongside an error
	// (an auto-compaction after it failed), so the oracle must see it.
	applied := snap != nil && snap.Epoch() >= epoch
	if applied {
		for _, m := range ops {
			switch m.kind {
			case opInsert:
				lc.live = append(lc.live, m.id)
				lc.boxes[m.id] = m.box
			case opDelete:
				delete(lc.boxes, m.id)
			case opUpdate:
				lc.boxes[m.id] = m.box
			}
		}
		lc.live = append(lc.live, kept...)
		lc.log = append(lc.log, batch{epoch: epoch, ops: ops})
	}
	if err != nil || !applied {
		lc.fail(fmt.Errorf("commit at epoch %d: %v", epoch, err))
		lc.commit.fail()
		return
	}
	lc.commit.add(time.Since(from))

	if lc.trace {
		lc.lt.commits++
		cow := snap.CowStats()
		lc.lt.cow.shared += int64(cow.Shared)
		lc.lt.cow.patched += int64(cow.Patched)
		lc.lt.cow.appended += int64(cow.Appended)
		lc.lt.walBytes += fileSize(walPath) - walSize0
		lc.lt.userBytes += int64(len(ops) * userBytesPerOp)
		if twinTx != nil {
			t1 := time.Now()
			if _, err := twinTx.Commit(); err != nil {
				lc.lt.twinBroken = true
			}
			apply := time.Since(t1)
			lc.lt.apply += apply
			lc.lt.walAppend += durableDur - apply
		}
	}
}

func (lc *lifecycle) fail(err error) {
	lc.failed++
	if len(lc.errs) < 5 {
		lc.errs = append(lc.errs, err)
	}
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

func dirSize(dir string) int64 {
	var n int64
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if info, err := e.Info(); err == nil && !info.IsDir() {
			n += info.Size()
		}
	}
	return n
}

// spinUntil waits for t: it sleeps until shortly before, then spins, so a
// commit starts on time rather than a timer slack late.
func spinUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// commitPhase runs n commits on the open-loop schedule: commit k is due at
// start + k*Interval, and its latency is counted from when it was due, so a
// commit that waits for the one before it counts the wait. A read that runs
// past the due time holds the commit back only because the benchmark issues
// both from one goroutine, so its overrun is not counted; the generator's
// lateness (start minus due) is recorded separately.
func (lc *lifecycle) commitPhase(n int) {
	dd := lc.h.dd
	start := time.Now()
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * lc.cfg.Interval)
		from := due
		if lc.idle != nil {
			if end := lc.idle(due); end.After(due) {
				from = end
			}
		}
		spinUntil(due)
		lc.lag.add(time.Since(due))
		lc.commitOne(dd, from)
	}
}

// cycle runs one full lifecycle cycle.
func (lc *lifecycle) cycle() error {
	lc.commitPhase(lc.cfg.Commits)
	if err := lc.checkpoint(); err != nil {
		return err
	}
	lc.commitPhase(lc.cfg.Tail)
	if err := lc.reopen(); err != nil {
		return err
	}
	lc.cycles++
	lc.commit.cut()
	return nil
}

// checkpoint times DurableDataset.Checkpoint. It starts from a collected
// heap: otherwise whether a collection cycle left over from the commits
// overlaps the compaction decides the figure more than the checkpoint does.
// Traced, it first times the probe set on the flat snapshot view over the
// pending overlay, runs and times an explicit Compact so the Checkpoint that
// follows only writes, and times the probe set again over the folded
// overlay.
func (lc *lifecycle) checkpoint() error {
	runtime.GC()
	dd := lc.h.dd
	lc.attempted++
	if lc.trace {
		snap := dd.Current()
		lc.lt.overlayPending += int64(snap.DeltaEntries() + snap.TombstoneCount())
		lc.lt.overlayBefore += lc.probeTime(snap)
		t0 := time.Now()
		if _, err := dd.Compact(); err != nil {
			lc.fail(err)
			return err
		}
		lc.lt.compact += time.Since(t0)
		if lc.lt.twin != nil && !lc.lt.twinBroken {
			if _, err := lc.lt.twin.Compact(); err != nil {
				lc.lt.twinBroken = true
			}
		}
	}
	t0 := time.Now()
	if err := dd.Checkpoint(); err != nil {
		lc.fail(err)
		return err
	}
	d := time.Since(t0)
	lc.checkpoints = append(lc.checkpoints, d.Seconds())
	if lc.trace {
		lc.lt.ckptWrite += d
		lc.lt.ckpts++
		m := dd.Manifest()
		lc.lt.ckptBytes += fileSize(filepath.Join(dd.Dir(), m.Snapshot)) + fileSize(filepath.Join(dd.Dir(), m.Pages))
		lc.lt.overlayAfter += lc.probeTime(dd.Current())
		lc.lt.overlayProbes++
	}
	return nil
}

// probeTime runs the probe set once on the snapshot's flat view with a nil
// visit and returns the mean time per request.
func (lc *lifecycle) probeTime(snap *engine.Snapshot) time.Duration {
	view := snap.Index("flat")
	ctx := context.Background()
	t0 := time.Now()
	for _, r := range lc.probe {
		view.Do(ctx, r, nil)
	}
	return time.Since(t0) / time.Duration(len(lc.probe))
}

// reopenRepeats is how many times each cycle closes and recovers the
// dataset: recovery is cheap next to a cycle, and more samples steady
// reopen_s.
const reopenRepeats = 2

// reopen closes the dataset and recovers it with OpenDataset (WAL-tail
// replay included), reopenRepeats times, and collects the closed ones.
func (lc *lifecycle) reopen() error {
	h := lc.h
	dir := h.dd.Dir()
	if lc.trace {
		lc.lt.closes++
		lc.lt.autoCompactions += h.dd.Stats().AutoCompactions - lc.lt.autoBase
		lc.lt.spaceAmp += float64(dirSize(dir)) / float64(len(lc.boxes)*userBytesPerOp)
	}
	for r := 0; r < reopenRepeats; r++ {
		lc.attempted++
		if err := h.dd.Close(); err != nil {
			lc.fail(err)
			return err
		}
		nd, err := lc.recover(dir)
		if err != nil {
			lc.fail(err)
			return err
		}
		h.dd = nd
		h.gen++
	}
	// The closed datasets are garbage now; collect them here rather than in
	// the middle of whatever the next cycle measures.
	runtime.GC()
	return nil
}

// recover times OpenDataset on dir. Traced, it first times the durable
// layer's own readers on the directory; the rest of OpenDataset is thaw and
// replay.
func (lc *lifecycle) recover(dir string) (*engine.DurableDataset, error) {
	var pre time.Duration
	if lc.trace {
		t0 := time.Now()
		m, err := durable.ReadManifest(dir)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if _, err := durable.ReadSnapshot(filepath.Join(dir, m.Snapshot)); err != nil {
			return nil, err
		}
		t2 := time.Now()
		pf, err := durable.OpenPageFile(filepath.Join(dir, m.Pages))
		if err != nil {
			return nil, err
		}
		t3 := time.Now()
		pf.Close()
		lc.lt.readManifest += t1.Sub(t0)
		lc.lt.readSnap += t2.Sub(t1)
		lc.lt.openPageFile += t3.Sub(t2)
		pre = t3.Sub(t0)
		if data, err := os.ReadFile(filepath.Join(dir, m.WAL)); err == nil {
			if _, recs, _, err := durable.DecodeWAL(data); err == nil {
				lc.lt.replayRecords += int64(len(recs))
			}
		}
	}
	t0 := time.Now()
	nd, err := engine.OpenDataset(dir)
	if err != nil {
		return nil, err
	}
	d := time.Since(t0)
	lc.reopens = append(lc.reopens, d.Seconds())
	if lc.trace {
		lc.lt.reopens++
		lc.lt.thaw += d - pre
		lc.lt.autoBase = nd.Stats().AutoCompactions
		if pf := newestPageFile(nd); pf != nil {
			lc.lt.openReads += pf.Reads()
		}
	}
	return nd, nil
}
