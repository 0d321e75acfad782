package main

import (
	"math"
	"sort"

	"neurospatial/internal/engine"
	"neurospatial/internal/geom"
	"neurospatial/internal/rtree"
)

// oracle answers every request kind by brute force over a live item set the
// benchmark maintains itself. A uniform grid of cells narrows the scan; the
// tests are the engine's own semantics: box intersection for range, box
// containment for point, squared box distance for within-distance and kNN
// (ascending distance, ties by ID).
type oracle struct {
	cell  float64
	boxes map[int32]geom.AABB
	cells map[int64][]int32
}

const oracleCell = 16.0

func newOracle(items []rtree.Item) *oracle {
	o := &oracle{cell: oracleCell, boxes: make(map[int32]geom.AABB, len(items)), cells: make(map[int64][]int32)}
	for _, it := range items {
		o.insert(it.ID, it.Box)
	}
	return o
}

type cellIdx [3]int64

func (o *oracle) cellOf(p geom.Vec) cellIdx {
	return cellIdx{int64(math.Floor(p.X / o.cell)), int64(math.Floor(p.Y / o.cell)), int64(math.Floor(p.Z / o.cell))}
}

func cellKey(c cellIdx) int64 {
	const off = 1 << 20
	return (c[0]+off)<<42 | (c[1]+off)<<21 | (c[2] + off)
}

// eachCell calls fn for every cell overlapping box.
func (o *oracle) eachCell(box geom.AABB, fn func(c cellIdx)) {
	lo, hi := o.cellOf(box.Min), o.cellOf(box.Max)
	for x := lo[0]; x <= hi[0]; x++ {
		for y := lo[1]; y <= hi[1]; y++ {
			for z := lo[2]; z <= hi[2]; z++ {
				fn(cellIdx{x, y, z})
			}
		}
	}
}

func (o *oracle) insert(id int32, box geom.AABB) {
	o.boxes[id] = box
	o.eachCell(box, func(c cellIdx) {
		k := cellKey(c)
		o.cells[k] = append(o.cells[k], id)
	})
}

func (o *oracle) remove(id int32) {
	box, ok := o.boxes[id]
	if !ok {
		return
	}
	delete(o.boxes, id)
	o.eachCell(box, func(c cellIdx) {
		k := cellKey(c)
		ids := o.cells[k]
		for i, x := range ids {
			if x == id {
				ids[i] = ids[len(ids)-1]
				o.cells[k] = ids[:len(ids)-1]
				break
			}
		}
	})
}

// candidates calls fn once for every live item whose box may meet q.
func (o *oracle) candidates(q geom.AABB, fn func(id int32, box geom.AABB)) {
	qlo := o.cellOf(q.Min)
	o.eachCell(q, func(c cellIdx) {
		for _, id := range o.cells[cellKey(c)] {
			box := o.boxes[id]
			// Report an item only from the first query cell it occupies, so
			// items spanning several cells are seen once.
			first := o.cellOf(box.Min)
			for a := 0; a < 3; a++ {
				if first[a] < qlo[a] {
					first[a] = qlo[a]
				}
			}
			if first == c {
				fn(id, box)
			}
		}
	})
}

// answer returns the request's hits in the engine's canonical order.
func (o *oracle) answer(req engine.Request) []engine.Hit {
	var out []engine.Hit
	switch req.Kind {
	case engine.Range:
		o.candidates(req.Box, func(id int32, box geom.AABB) {
			if box.Intersects(req.Box) {
				out = append(out, engine.Hit{ID: id})
			}
		})
	case engine.Point:
		o.candidates(geom.AABB{Min: req.Center, Max: req.Center}, func(id int32, box geom.AABB) {
			if box.Contains(req.Center) {
				out = append(out, engine.Hit{ID: id})
			}
		})
	case engine.WithinDistance:
		out = o.within(req.Center, req.Radius)
	case engine.KNN:
		for r := 8.0; ; r *= 2 {
			out = o.within(req.Center, r)
			if len(out) >= req.K || len(out) == len(o.boxes) {
				break
			}
		}
		sort.Slice(out, func(a, b int) bool {
			if out[a].Dist2 != out[b].Dist2 {
				return out[a].Dist2 < out[b].Dist2
			}
			return out[a].ID < out[b].ID
		})
		if len(out) > req.K {
			out = out[:req.K]
		}
		return out
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

func (o *oracle) within(c geom.Vec, r float64) []engine.Hit {
	var out []engine.Hit
	r2 := r * r
	o.candidates(geom.BoxAround(c, r), func(id int32, box geom.AABB) {
		if d2 := box.Dist2Point(c); d2 <= r2 {
			out = append(out, engine.Hit{ID: id, Dist2: d2})
		}
	})
	return out
}

// rangeCount counts live items whose boxes intersect q.
func (o *oracle) rangeCount(q geom.AABB) int64 {
	var n int64
	o.candidates(q, func(_ int32, box geom.AABB) {
		if box.Intersects(q) {
			n++
		}
	})
	return n
}

// sameHits reports whether two hit lists agree hit for hit, distances
// included.
func sameHits(a, b []engine.Hit) bool {
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

// opKind tags one mutation of a committed batch.
type opKind uint8

const (
	opInsert opKind = iota
	opDelete
	opUpdate
)

type mutation struct {
	kind opKind
	id   int32
	box  geom.AABB
}

// batch is one committed transaction and the epoch it first became visible
// at.
type batch struct {
	epoch int
	ops   []mutation
}

func (o *oracle) apply(b batch) {
	for _, m := range b.ops {
		switch m.kind {
		case opInsert:
			o.insert(m.id, m.box)
		case opDelete:
			o.remove(m.id)
		case opUpdate:
			o.remove(m.id)
			o.insert(m.id, m.box)
		}
	}
}

// sample is one checked query: the epoch its session was pinned to and the
// answer it got.
type sample struct {
	epoch int
	req   engine.Request
	hits  []engine.Hit
	// at is the request's position in its kind's latency series.
	at int
}

// verify replays the committed batches over the initial items in epoch
// order and checks every sample against the oracle at its epoch. It returns
// the samples that disagree.
func verify(initial []rtree.Item, log []batch, samples []sample) []sample {
	sort.SliceStable(samples, func(a, b int) bool { return samples[a].epoch < samples[b].epoch })
	o := newOracle(initial)
	var bad []sample
	next := 0
	for _, s := range samples {
		for next < len(log) && log[next].epoch <= s.epoch {
			o.apply(log[next])
			next++
		}
		if !sameHits(o.answer(s.req), s.hits) {
			bad = append(bad, s)
		}
	}
	return bad
}
