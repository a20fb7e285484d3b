package main

import (
	"math"
	"sort"
	"time"
)

// Request classes of the read mix.
const (
	classSearch = iota
	classUser
	classRelated
	classBatch
	numClasses
)

var classNames = [numClasses]string{"search", "user_search", "related", "batch"}

// minClassSamples is the fewest samples of one class a window needs
// before its percentile of that class competes for "best window".
const minClassSamples = 10

// sample is one completed request as a client recorded it.
type sample struct {
	done  time.Duration // completion time, since the phase epoch
	lat   time.Duration
	class uint8
}

// windowStats summarizes one measurement window.
type windowStats struct {
	quiet bool
	steal float64
	rssMB float64 // the server's resident set at the window's end
	// n counts the requests completed in the window, per class; p50 and
	// p90 are the per-class latency percentiles in milliseconds (NaN for
	// a class with no samples); rps is the all-class completion rate.
	n   [numClasses]int
	p50 [numClasses]float64
	p90 [numClasses]float64
	rps float64
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// an ascending slice, NaN when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// summarize cuts the clients' samples into windows at the given
// boundaries (len(bounds) = windows+1, ascending, since the phase
// epoch); a sample belongs to the window its completion falls in.
func summarize(samples []sample, bounds []time.Duration) []windowStats {
	ws := make([]windowStats, len(bounds)-1)
	lat := make([][numClasses][]float64, len(ws))
	for _, s := range samples {
		w := sort.Search(len(bounds), func(i int) bool { return bounds[i] > s.done }) - 1
		if w < 0 || w >= len(ws) {
			continue // warm-up, or the tail after the last boundary
		}
		lat[w][s.class] = append(lat[w][s.class], float64(s.lat)/float64(time.Millisecond))
	}
	for w := range ws {
		total := 0
		for c := range numClasses {
			sort.Float64s(lat[w][c])
			ws[w].n[c] = len(lat[w][c])
			ws[w].p50[c] = percentile(lat[w][c], 50)
			ws[w].p90[c] = percentile(lat[w][c], 90)
			total += len(lat[w][c])
		}
		ws[w].rps = float64(total) / (bounds[w+1] - bounds[w]).Seconds()
	}
	return ws
}

// estimate is one best-window number with the evidence behind it.
type estimate struct {
	value   float64
	samples int // class samples in the winning window
	windows int // windows that competed
}

// bestWindows keeps the windows the estimators may use: the quiet ones,
// or — on a host that never went quiet — all of them, so a disturbed run
// still prints numbers (marked as such by the caller).
func bestWindows(ws []windowStats) []windowStats {
	var quiet []windowStats
	for _, w := range ws {
		if w.quiet {
			quiet = append(quiet, w)
		}
	}
	if len(quiet) == 0 {
		return ws
	}
	return quiet
}

// lowest returns the lowest per-window value of one class's percentile
// over ws. Additive burst noise only ever raises a window's percentile,
// so the minimum is the estimator that repeats.
func lowest(ws []windowStats, class int, pick func(windowStats) float64) estimate {
	e := estimate{value: math.NaN()}
	for _, w := range ws {
		if w.n[class] < minClassSamples {
			continue
		}
		e.windows++
		if v := pick(w); math.IsNaN(e.value) || v < e.value {
			e.value, e.samples = v, w.n[class]
		}
	}
	return e
}

// highestRate returns the highest per-window completion rate over ws.
func highestRate(ws []windowStats) estimate {
	e := estimate{value: math.NaN()}
	for _, w := range ws {
		total := 0
		for _, n := range w.n {
			total += n
		}
		e.windows++
		if math.IsNaN(e.value) || w.rps > e.value {
			e.value, e.samples = w.rps, total
		}
	}
	return e
}

// median returns the median of vs (mean of the middle two when even),
// NaN when empty. It does not modify vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile of an ascending slice
// the way Python's statistics.quantiles(values, n=4) does (the
// "exclusive" method), so the spreads printed here are the ones the
// benchmark's acceptance rule computes. NaN with fewer than two values.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(3)
}
