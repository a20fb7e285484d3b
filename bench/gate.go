package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// The quiet gate. On the shared 2-vCPU build VM the dominant noise is
// hypervisor steal: additive, and arriving in bursts that outlast any
// single run. The harness therefore measures only while the host is
// quiet, and says so loudly when it never was. Steal is read from the
// aggregate "cpu" line of /proc/stat around every measured interval.

// cpuTimes is the busy part of one /proc/stat "cpu" line, in clock ticks.
type cpuTimes struct {
	user, nice, system, steal uint64
}

// parseCPULine parses the aggregate "cpu" line of /proc/stat:
//
//	cpu  user nice system idle iowait irq softirq steal guest guest_nice
//
// Kernels before 2.6.11 stop after idle (or softirq) and have no steal
// column; a missing column reads as zero.
func parseCPULine(line string) (cpuTimes, error) {
	f := strings.Fields(line)
	if len(f) < 5 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("gate: not an aggregate cpu line: %q", line)
	}
	col := func(i int) (uint64, error) {
		if i >= len(f) {
			return 0, nil
		}
		return strconv.ParseUint(f[i], 10, 64)
	}
	var t cpuTimes
	var err error
	for _, c := range []struct {
		dst *uint64
		i   int
	}{{&t.user, 1}, {&t.nice, 2}, {&t.system, 3}, {&t.steal, 8}} {
		if *c.dst, err = col(c.i); err != nil {
			return cpuTimes{}, fmt.Errorf("gate: cpu line column %d: %w", c.i, err)
		}
	}
	return t, nil
}

// stealShare is Δsteal / (Δuser+Δnice+Δsystem+Δsteal) between two
// readings: the share of the CPU time this VM demanded that the
// hypervisor gave to someone else. An interval with no demand has no
// steal to observe and reads 0; so does one over which a counter ran
// backwards — some paravirtualised kernels step steal back, and a gate
// that went off mid-run samples zeros — where the unsigned differences
// would wrap into a garbage share.
func stealShare(a, b cpuTimes) float64 {
	if b.user < a.user || b.nice < a.nice || b.system < a.system || b.steal < a.steal {
		return 0
	}
	steal := b.steal - a.steal
	busy := (b.user - a.user) + (b.nice - a.nice) + (b.system - a.system) + steal
	if busy == 0 {
		return 0
	}
	return float64(steal) / float64(busy)
}

// gate decides whether a measured interval may be believed. The three
// function fields are the seams the table tests replace.
type gate struct {
	threshold float64
	// off is set when the host exposes no /proc/stat (or an unreadable
	// one): every interval then counts as quiet and the report says the
	// gate was off.
	off bool

	read  func() (cpuTimes, error)
	sleep func(time.Duration)
	spin  func(time.Duration)

	// What the run's host.* metrics report.
	maxShare  float64
	discarded int
	retries   int
}

const (
	probeSpin  = 200 * time.Millisecond
	probePause = time.Second
)

// newGate opens the gate over statPath, or reports itself off when the
// file cannot be read or parsed.
func newGate(threshold float64, statPath string) *gate {
	g := &gate{threshold: threshold, sleep: time.Sleep, spin: spinFor}
	g.read = func() (cpuTimes, error) {
		data, err := os.ReadFile(statPath)
		if err != nil {
			return cpuTimes{}, err
		}
		line, _, _ := strings.Cut(string(data), "\n")
		return parseCPULine(line)
	}
	if _, err := g.read(); err != nil {
		g.off = true
	}
	return g
}

// sample reads the counters; with the gate off it returns zeros, so
// every share computes to 0.
func (g *gate) sample() cpuTimes {
	if g.off {
		return cpuTimes{}
	}
	t, err := g.read()
	if err != nil {
		g.off = true
		return cpuTimes{}
	}
	return t
}

// judge returns the steal share between two samples and whether the
// interval was quiet, and folds the share into the run's maximum.
func (g *gate) judge(a, b cpuTimes) (share float64, quiet bool) {
	share = stealShare(a, b)
	if share > g.maxShare {
		g.maxShare = share
	}
	return share, share <= g.threshold
}

// waitQuiet waits for the host to go quiet, for at most maxWait. Steal
// only shows while the VM demands CPU, so each probe spins one
// goroutine for 200 ms; between probes the harness sleeps.
func (g *gate) waitQuiet(maxWait time.Duration) bool {
	for waited := time.Duration(0); ; waited += probeSpin + probePause {
		a := g.sample()
		g.spin(probeSpin)
		if _, quiet := g.judge(a, g.sample()); quiet {
			return true
		}
		if waited+probeSpin+probePause > maxWait {
			return false
		}
		g.sleep(probePause)
	}
}

// timed runs a long operation `attempts` times and keeps the fastest:
// the slow periods of a shared host only ever add time. On top of that
// sits the retry-once rule: when no attempt's interval was quiet, wait
// for a quiet probe and run it once more. disturbed reports that even
// then no attempt ran on a quiet host.
func (g *gate) timed(attempts int, maxWait time.Duration, op func() (time.Duration, error)) (best time.Duration, disturbed bool, err error) {
	quiet := false
	attempt := func() error {
		a := g.sample()
		d, err := op()
		if err != nil {
			return err
		}
		if _, q := g.judge(a, g.sample()); q {
			quiet = true
		}
		if best == 0 || d < best {
			best = d
		}
		return nil
	}
	for range attempts {
		if err := attempt(); err != nil {
			return 0, false, err
		}
	}
	if !quiet {
		g.retries++
		g.waitQuiet(maxWait)
		if err := attempt(); err != nil {
			return 0, false, err
		}
	}
	return best, !quiet, nil
}

// windowLedger is the accept/replace bookkeeping of the read phase: it
// wants a number of quiet windows and replaces each disturbed one, up
// to a cap on the windows attempted.
type windowLedger struct {
	want, maxAttempts int
	quiet, attempted  int
}

// record notes one finished window and reports whether the phase is
// over.
func (l *windowLedger) record(quiet bool) (done bool) {
	l.attempted++
	if quiet {
		l.quiet++
	}
	return l.quiet >= l.want || l.attempted >= l.maxAttempts
}

// disturbed reports that the phase ended without its quiet windows.
func (l *windowLedger) disturbed() bool { return l.quiet < l.want }

func spinFor(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}
