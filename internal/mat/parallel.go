package mat

import (
	"runtime"
	"sync"
)

// parallelThreshold is the approximate floating-point-op count below
// which parallel dispatch costs more than it saves: starting and joining
// a few goroutines takes microseconds, 2¹⁶ multiply-adds take tens.
const parallelThreshold = 1 << 16

// Workers resolves a caller-supplied worker bound: 0 (or negative) means
// one worker per logical CPU, 1 means fully serial, anything else is an
// explicit cap. Exported so higher layers (tucker, tensor) resolve the
// bound identically when sizing their own pools.
func Workers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// parallelFor splits [0, n) into contiguous chunks and runs fn on each
// chunk concurrently with a GOMAXPROCS-bounded pool. cost is the
// estimated total op count; small jobs run inline. fn must be safe to
// run concurrently on disjoint ranges.
func parallelFor(n int, cost int, fn func(lo, hi int)) {
	parallelForW(n, cost, 0, fn)
}

// parallelForW is parallelFor with an explicit worker bound (0 =
// GOMAXPROCS, 1 = inline). Every chunk computes exactly the same output
// it would serially — callers own disjoint index ranges — so results are
// bit-identical for every worker count.
func parallelForW(n, cost, workers int, fn func(lo, hi int)) {
	w := Workers(workers)
	if cost < parallelThreshold || w <= 1 || n < 2 {
		fn(0, n)
		return
	}
	if w > n {
		w = n
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
