package main

import (
	"math"
	"sort"
	"time"
)

// chunk is the sample count per tail-percentile estimate: ten samples lie
// beyond the 99th percentile of every chunk.
const chunk = 1000

// failedLatency stands in for the latency of a request that failed or gave a
// wrong answer: it misses every percentile instead of leaving the sample.
var failedLatency = math.Inf(1)

// series collects one operation's latencies in microseconds, in the order
// they were measured.
type series struct {
	us []float64
	// cuts, when set, mark where each chunk starts (see chunks).
	cuts  []int
	byCut bool
}

func (s *series) add(d time.Duration) { s.us = append(s.us, float64(d)/1e3) }
func (s *series) fail()               { s.us = append(s.us, failedLatency) }
func (s *series) n() int              { return len(s.us) }

// cut starts a new chunk at the next sample.
func (s *series) cut() {
	s.byCut = true
	s.cuts = append(s.cuts, len(s.us))
}

// minCutChunk is the fewest samples a cut chunk needs to count on its own.
const minCutChunk = 100

// chunks splits the samples at the cuts, dropping chunks too small to have a
// tail, or without cuts into consecutive runs of chunk samples.
func (s *series) chunks() [][]float64 {
	var out [][]float64
	if s.byCut {
		bounds := append(append([]int{0}, s.cuts...), len(s.us))
		for i := 0; i+1 < len(bounds); i++ {
			if c := s.us[bounds[i]:bounds[i+1]]; len(c) >= minCutChunk {
				out = append(out, c)
			}
		}
		return out
	}
	for lo := 0; lo+chunk <= len(s.us); lo += chunk {
		out = append(out, s.us[lo:lo+chunk])
	}
	return out
}

// p50 and p99 are the medians, over the chunks, of each chunk's 50th and
// 99th percentile; with fewer than two chunks they are the percentiles of
// all samples. Taking the median over chunks keeps a stretch of time in
// which the machine ran slow — a garbage-collection pause, a slow fsync, a
// noisy neighbour — from deciding the figure.
func (s *series) p50() float64 { return s.quantile(0.50) }
func (s *series) p99() float64 { return s.quantile(0.99) }

// quantile is the median over chunks of each chunk's q-quantile.
func (s *series) quantile(q float64) float64 {
	cs := s.chunks()
	if len(cs) < 2 {
		return quantile(s.us, q)
	}
	per := make([]float64, len(cs))
	for i, c := range cs {
		per[i] = quantile(c, q)
	}
	return median(per)
}

// rate measures throughput as the median, over chunks of chunk operations,
// of each chunk's rate, for the same reason. The clock runs only between
// begin and stop, so a client that measures in stretches counts only the
// time it spent issuing operations.
type rate struct {
	ops, total int
	// busy is the current chunk's time from stretches already stopped.
	busy    time.Duration
	start   time.Time
	running bool
	perSec  []float64
	elapsed time.Duration
}

// begin starts or resumes the clock.
func (r *rate) begin() {
	r.start = time.Now()
	r.running = true
}

// done records n completed operations.
func (r *rate) done(n int) {
	r.ops += n
	r.total += n
	if r.ops >= chunk {
		d := r.busy
		if r.running {
			now := time.Now()
			d += now.Sub(r.start)
			r.start = now
		}
		r.perSec = append(r.perSec, float64(r.ops)/d.Seconds())
		r.elapsed += d
		r.ops, r.busy = 0, 0
	}
}

// stop pauses the clock.
func (r *rate) stop() {
	if r.running {
		r.busy += time.Since(r.start)
		r.running = false
	}
}

// value is the median chunk rate, or the overall rate when fewer than two
// chunks completed.
func (r *rate) value() float64 {
	if len(r.perSec) >= 2 {
		return median(r.perSec)
	}
	return r.overall()
}

// overall is the rate over all stopped stretches.
func (r *rate) overall() float64 {
	return float64(r.total) / (r.elapsed + r.busy).Seconds()
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	if math.IsInf(s[lo+1], 1) {
		return s[lo+1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
