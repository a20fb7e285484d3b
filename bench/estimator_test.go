package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		vs   []float64
		p    float64
		want float64
	}{
		{ten, 50, 5}, {ten, 90, 9}, {ten, 100, 10}, {ten, 1, 1}, {ten, 91, 10},
		{[]float64{7}, 50, 7}, {[]float64{1, 2}, 50, 1}, {[]float64{1, 2, 3}, 50, 2},
	} {
		if got := percentile(tc.vs, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.vs, tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing must be NaN")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(values, n=4) of each input, from CPython 3.12.
	for _, tc := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.7, 3.74, 3.8, 3.85, 3.85, 3.9, 3.9, 4.0, 4.1, 4.4}, 3.785, 4.025},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{5, 9}, 4, 10},
	} {
		q1, q3 := quartiles(tc.vs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.vs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func msDur(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }

func TestSummarizeCutsSamplesIntoWindows(t *testing.T) {
	bounds := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	var samples []sample
	add := func(at time.Duration, class uint8, latMS float64) {
		samples = append(samples, sample{done: at, lat: msDur(latMS), class: class})
	}
	add(500*time.Millisecond, classSearch, 99) // warm-up: before the first boundary
	for i := range 10 {
		add(time.Second+time.Duration(i)*time.Millisecond, classSearch, float64(i+1)) // window 0: 1..10 ms
	}
	add(1500*time.Millisecond, classBatch, 7)
	for i := range 4 {
		add(2*time.Second+time.Duration(i)*time.Millisecond, classSearch, 2) // window 1
	}
	add(3*time.Second, classSearch, 99) // the tail: at the last boundary

	ws := summarize(samples, bounds)
	if len(ws) != 2 {
		t.Fatalf("%d windows, want 2", len(ws))
	}
	if ws[0].n[classSearch] != 10 || ws[0].n[classBatch] != 1 || ws[1].n[classSearch] != 4 {
		t.Errorf("counts: %v %v", ws[0].n, ws[1].n)
	}
	if ws[0].p50[classSearch] != 5 || ws[0].p90[classSearch] != 9 || ws[0].p50[classBatch] != 7 {
		t.Errorf("window 0 percentiles: p50 %v p90 %v", ws[0].p50, ws[0].p90)
	}
	if !math.IsNaN(ws[1].p50[classBatch]) {
		t.Error("a class with no samples must read NaN")
	}
	if ws[0].rps != 11 || ws[1].rps != 4 {
		t.Errorf("rps %v %v, want 11 4", ws[0].rps, ws[1].rps)
	}
}

func TestBestWindowEstimators(t *testing.T) {
	mk := func(quiet bool, nSearch int, p50, rps float64) windowStats {
		var w windowStats
		w.quiet, w.rps = quiet, rps
		w.n[classSearch], w.p50[classSearch] = nSearch, p50
		return w
	}
	ws := []windowStats{
		mk(true, 500, 0.30, 2400),
		mk(false, 500, 0.10, 9000), // disturbed: its lucky numbers must not count
		mk(true, 500, 0.28, 2600),
		mk(true, 3, 0.01, 100), // too few samples of the class to compete on latency
	}
	best := bestWindows(ws)
	if len(best) != 3 {
		t.Fatalf("%d usable windows, want the 3 quiet ones", len(best))
	}
	p50 := lowest(best, classSearch, func(w windowStats) float64 { return w.p50[classSearch] })
	if p50.value != 0.28 || p50.samples != 500 || p50.windows != 2 {
		t.Errorf("lowest p50 = %+v", p50)
	}
	if rate := highestRate(best); rate.value != 2600 {
		t.Errorf("highest rate = %+v", rate)
	}
	// A host that never went quiet still yields numbers, from all windows.
	noisy := []windowStats{mk(false, 500, 0.4, 2000), mk(false, 500, 0.5, 1900)}
	if got := bestWindows(noisy); len(got) != 2 {
		t.Errorf("never-quiet fallback kept %d windows, want 2", len(got))
	}
	if e := lowest(nil, classSearch, func(w windowStats) float64 { return 0 }); !math.IsNaN(e.value) {
		t.Error("no windows must estimate NaN")
	}
}
