package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestParseCPULine(t *testing.T) {
	for _, tc := range []struct {
		name, line string
		want       cpuTimes
		wantErr    bool
	}{
		{"modern kernel, ten columns", "cpu  3397293 3790 457977 2736727 7987 0 94627 59130 0 0",
			cpuTimes{user: 3397293, nice: 3790, system: 457977, steal: 59130}, false},
		{"2.6.11+, eight columns", "cpu 100 2 30 400 5 6 7 8",
			cpuTimes{user: 100, nice: 2, system: 30, steal: 8}, false},
		{"2.6.0, seven columns, no steal", "cpu 100 2 30 400 5 6 7",
			cpuTimes{user: 100, nice: 2, system: 30}, false},
		{"2.4, four columns", "cpu 100 2 30 400",
			cpuTimes{user: 100, nice: 2, system: 30}, false},
		{"per-cpu line is not the aggregate", "cpu0 1 2 3 4 5 6 7 8", cpuTimes{}, true},
		{"too short", "cpu 1 2 3", cpuTimes{}, true},
		{"not a number", "cpu 1 x 3 4 5 6 7 8", cpuTimes{}, true},
		{"empty", "", cpuTimes{}, true},
	} {
		got, err := parseCPULine(tc.line)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, wantErr %v", tc.name, err, tc.wantErr)
		}
		if got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestStealShare(t *testing.T) {
	base := cpuTimes{user: 1000, nice: 10, system: 100, steal: 50}
	for _, tc := range []struct {
		name string
		b    cpuTimes
		want float64
	}{
		{"no demand, nothing to observe", base, 0},
		{"busy, nothing stolen", cpuTimes{user: 1150, nice: 10, system: 150, steal: 50}, 0},
		{"2 of 100 demanded ticks stolen", cpuTimes{user: 1090, nice: 10, system: 108, steal: 52}, 0.02},
		{"half stolen", cpuTimes{user: 1040, nice: 12, system: 108, steal: 100}, 0.5},
		{"everything stolen", cpuTimes{user: 1000, nice: 10, system: 100, steal: 80}, 1},
		{"steal stepped backwards: nothing to judge, not a wrapped share", cpuTimes{user: 1090, nice: 10, system: 108, steal: 48}, 0},
		{"gate went off mid-interval and sampled zeros", cpuTimes{}, 0},
	} {
		if got := stealShare(base, tc.b); got != tc.want {
			t.Errorf("%s: stealShare = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestWindowLedger(t *testing.T) {
	for _, tc := range []struct {
		name          string
		want, max     int
		windows       []bool // quiet?
		wantAttempted int
		wantDisturbed bool
	}{
		{"all quiet: stops at want", 3, 6, []bool{true, true, true, true}, 3, false},
		{"disturbed windows are replaced", 3, 6, []bool{true, false, false, true, true, true}, 5, false},
		{"gives up at the cap", 3, 6, []bool{false, true, false, false, false, true, true}, 6, true},
		{"never quiet", 2, 4, []bool{false, false, false, false, false}, 4, true},
	} {
		l := &windowLedger{want: tc.want, maxAttempts: tc.max}
		for _, quiet := range tc.windows {
			if l.record(quiet) {
				break
			}
		}
		if l.attempted != tc.wantAttempted || l.disturbed() != tc.wantDisturbed {
			t.Errorf("%s: attempted %d disturbed %v, want %d %v", tc.name, l.attempted, l.disturbed(), tc.wantAttempted, tc.wantDisturbed)
		}
	}
}

// scriptedGate replays /proc/stat readings: each interval the gate
// judges consumes two.
func scriptedGate(readings []cpuTimes, slept *time.Duration) *gate {
	i := 0
	return &gate{
		threshold: 0.02,
		read: func() (cpuTimes, error) {
			if i >= len(readings) {
				return cpuTimes{}, errors.New("script exhausted")
			}
			r := readings[i]
			i++
			return r, nil
		},
		sleep: func(d time.Duration) { *slept += d },
		spin:  func(time.Duration) {},
	}
}

func TestGateRetryOnce(t *testing.T) {
	quietA, quietB := cpuTimes{user: 0}, cpuTimes{user: 100}           // 0 stolen of 100
	noisyA, noisyB := cpuTimes{user: 0}, cpuTimes{user: 50, steal: 50} // half stolen
	for _, tc := range []struct {
		name          string
		attempts      int
		readings      []cpuTimes
		durations     []time.Duration
		wantBest      time.Duration
		wantRuns      int
		wantRetries   int
		wantDisturbed bool
	}{
		{"quiet operation runs once", 1, []cpuTimes{quietA, quietB},
			[]time.Duration{4 * time.Second}, 4 * time.Second, 1, 0, false},
		{"disturbed operation is retried once after a quiet probe, faster attempt kept", 1,
			[]cpuTimes{noisyA, noisyB /* probe */, quietA, quietB /* retry */, quietA, quietB},
			[]time.Duration{9 * time.Second, 4 * time.Second}, 4 * time.Second, 2, 1, false},
		{"a slower retry does not replace the first attempt", 1,
			[]cpuTimes{noisyA, noisyB, quietA, quietB, quietA, quietB},
			[]time.Duration{5 * time.Second, 6 * time.Second}, 5 * time.Second, 2, 1, false},
		{"still disturbed on the retry: never a third attempt, marked disturbed", 1,
			[]cpuTimes{noisyA, noisyB /* probe */, quietA, quietB /* retry */, noisyA, noisyB},
			[]time.Duration{9 * time.Second, 8 * time.Second}, 8 * time.Second, 2, 1, true},
		{"two attempts, fastest kept, one quiet attempt is enough", 2,
			[]cpuTimes{noisyA, noisyB, quietA, quietB},
			[]time.Duration{5 * time.Second, 4 * time.Second}, 4 * time.Second, 2, 0, false},
		{"two attempts, both disturbed: one retry", 2,
			[]cpuTimes{noisyA, noisyB, noisyA, noisyB /* probe */, quietA, quietB /* retry */, quietA, quietB},
			[]time.Duration{5 * time.Second, 6 * time.Second, 4 * time.Second}, 4 * time.Second, 3, 1, false},
	} {
		var slept time.Duration
		g := scriptedGate(tc.readings, &slept)
		runs := 0
		best, disturbed, err := g.timed(tc.attempts, 10*time.Second, func() (time.Duration, error) {
			runs++
			return tc.durations[runs-1], nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if best != tc.wantBest || runs != tc.wantRuns || g.retries != tc.wantRetries || disturbed != tc.wantDisturbed {
			t.Errorf("%s: best %v runs %d retries %d disturbed %v; want %v %d %d %v",
				tc.name, best, runs, g.retries, disturbed, tc.wantBest, tc.wantRuns, tc.wantRetries, tc.wantDisturbed)
		}
	}
}

func TestGateWaitQuietSleepsBetweenProbesAndGivesUp(t *testing.T) {
	noisy := []cpuTimes{}
	for range 20 {
		noisy = append(noisy, cpuTimes{user: 0}, cpuTimes{user: 50, steal: 50})
	}
	var slept time.Duration
	g := scriptedGate(noisy, &slept)
	if g.waitQuiet(5 * time.Second) {
		t.Fatal("waitQuiet reported quiet on a host that never was")
	}
	if slept == 0 || slept > 5*time.Second {
		t.Errorf("slept %v between probes, want within (0, 5s]", slept)
	}
	if g.maxShare != 0.5 {
		t.Errorf("maxShare = %v, want 0.5", g.maxShare)
	}
}

func TestGateOffWithoutProcStat(t *testing.T) {
	g := newGate(0.02, filepath.Join(t.TempDir(), "no-such-stat"))
	if !g.off {
		t.Fatal("gate over a missing file is not off")
	}
	if _, quiet := g.judge(g.sample(), g.sample()); !quiet {
		t.Error("an off gate must call every interval quiet")
	}
	best, disturbed, err := g.timed(1, time.Second, func() (time.Duration, error) { return time.Second, nil })
	if err != nil || disturbed || best != time.Second || g.retries != 0 {
		t.Errorf("off gate: timed = %v %v %v, retries %d", best, disturbed, err, g.retries)
	}

	// /proc/stat turning unreadable between two samples switches the gate
	// off; the interval it straddles is quiet and leaves no mark.
	reads := 0
	g = &gate{threshold: 0.02, read: func() (cpuTimes, error) {
		if reads++; reads > 1 {
			return cpuTimes{}, errors.New("gone")
		}
		return cpuTimes{user: 1000, system: 100, steal: 50}, nil
	}}
	a := g.sample()
	if share, quiet := g.judge(a, g.sample()); !g.off || !quiet || share != 0 || g.maxShare != 0 {
		t.Errorf("gate lost mid-interval: off %v quiet %v share %v max %v", g.off, quiet, share, g.maxShare)
	}

	garbage := filepath.Join(t.TempDir(), "stat")
	if err := os.WriteFile(garbage, []byte("intr 1 2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if !newGate(0.02, garbage).off {
		t.Error("gate over a file without a cpu line is not off")
	}

	fixture := filepath.Join(t.TempDir(), "stat")
	if err := os.WriteFile(fixture, []byte("cpu  10 0 5 100 0 0 0 3 0 0\ncpu0 10 0 5 100 0 0 0 3 0 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g = newGate(0.02, fixture)
	if g.off {
		t.Fatal("gate over a valid fixture is off")
	}
	if got := g.sample(); got != (cpuTimes{user: 10, system: 5, steal: 3}) {
		t.Errorf("sample = %+v", got)
	}
}
