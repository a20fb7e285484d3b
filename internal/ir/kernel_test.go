package ir

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/race"
)

// sparseIndex is a collection of nDocs documents of which only three
// have any posting: the shape that separates a kernel costing
// O(postings scanned) from one costing O(collection).
func sparseIndex(t testing.TB, nDocs int) *Index {
	t.Helper()
	snap := &IndexSnapshot{
		NumTerms: 2,
		NumDocs:  nDocs,
		DF:       []int{3, 0},
		Postings: [][]Posting{{{Doc: 1, Weight: 0.5}, {Doc: nDocs / 2, Weight: 0.25}, {Doc: nDocs - 1, Weight: 0.75}}, nil},
		Norms:    make([]float64, nDocs),
	}
	for _, p := range snap.Postings[0] {
		snap.Norms[p.Doc] = p.Weight
	}
	ix, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestKernelCostIndependentOfCollectionSize holds the pooled scratch to
// its contract on a 10⁶-document index and a 3-posting query: after the
// first query sized the scratch, a query neither allocates anything that
// scales with the collection nor spends time that does.
func TestKernelCostIndependentOfCollectionSize(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	const big, small = 1_000_000, 1_000
	qw := map[int]float64{0: 1}
	user := []float64{0.5, 0.5}
	query := func(ix *Index) {
		if got := ix.RankWeights(qw, 10, math.Inf(-1)); len(got) != 3 {
			t.Fatalf("shared query returned %d results, want 3", len(got))
		}
		if got := ix.RankBlended(qw, user, 0.25, 10, math.Inf(-1)); len(got) != 3 {
			t.Fatalf("personalised query returned %d results, want 3", len(got))
		}
	}

	bigIx, smallIx := sparseIndex(t, big), sparseIndex(t, small)
	runtime.GC() // settle the construction garbage so no cycle clears the pool mid-measurement
	query(bigIx) // sizes the scratch and builds the forward view
	query(smallIx)

	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		query(bigIx)
	}
	runtime.ReadMemStats(&after)
	if perQuery := (after.TotalAlloc - before.TotalAlloc) / runs; perQuery > 4096 {
		t.Fatalf("a 3-posting query pair on a %d-document index allocates %d bytes; the scratch is not being reused", big, perQuery)
	}
	if perQuery := (after.Mallocs - before.Mallocs) / runs; perQuery > 16 {
		t.Fatalf("a 3-posting query pair allocates %d objects", perQuery)
	}

	// Time: the best of several rounds on each index. An O(collection)
	// reset would make the big index ~1000x slower; cache misses on the
	// three scattered documents account for a small constant.
	best := func(ix *Index) time.Duration {
		min := time.Duration(math.MaxInt64)
		for range 5 {
			start := time.Now()
			for range runs {
				query(ix)
			}
			if d := time.Since(start); d < min {
				min = d
			}
		}
		return min
	}
	if b, s := best(bigIx), best(smallIx); b > 50*s {
		t.Fatalf("%d queries took %v on %d documents but %v on %d: per-query cost scales with the collection", runs, b, big, s, small)
	}
}

// TestDominantPassAllocatesNothingPerListedDocument holds RankDominant —
// the concept source — to its contract: a query whose probed list holds
// 2·10⁴ documents, at topN 200, neither grows a candidate slice per
// listed document nor allocates the collection-sized accumulator. The
// threshold admits 20 documents, so the bound measures the pass's own
// working memory rather than the answer. The concept source this pass
// replaced appended every listed document: 1.6 MB and 24 objects here.
func TestDominantPassAllocatesNothingPerListedDocument(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	// Every document is dominated by term 0; every thousandth also holds
	// term 1 at half weight, which lifts its score above the threshold.
	const n = 20_000
	snap := &IndexSnapshot{NumTerms: 2, NumDocs: n, DF: []int{n, n / 1000}, Postings: make([][]Posting, 2), Norms: make([]float64, n)}
	for d := range n {
		snap.Postings[0] = append(snap.Postings[0], Posting{Doc: d, Weight: 1})
		snap.Norms[d] = 1
		if d%1000 == 0 {
			snap.Postings[1] = append(snap.Postings[1], Posting{Doc: d, Weight: 0.5})
			snap.Norms[d] = math.Sqrt(1.25)
		}
	}
	ix, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	qw := map[int]float64{0: 1, 1: 1}
	query := func() {
		if got := ix.RankDominant(qw, nil, 0, 200, 0.9); len(got) != n/1000 {
			t.Fatalf("thresholded pass returned %d results, want %d", len(got), n/1000)
		}
	}
	runtime.GC()
	query() // sizes the scratch and builds the forward view

	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		query()
	}
	runtime.ReadMemStats(&after)
	if perQuery := (after.TotalAlloc - before.TotalAlloc) / runs; perQuery > 2048 {
		t.Fatalf("a pass over %d listed documents allocates %d bytes", n, perQuery)
	}
	if perQuery := (after.Mallocs - before.Mallocs) / runs; perQuery > 16 {
		t.Fatalf("a pass over %d listed documents allocates %d objects", n, perQuery)
	}
	if allocs := testing.AllocsPerRun(runs, func() { ix.RankDominant(qw, nil, 0, 200, math.Inf(-1)) }); allocs > 16 {
		t.Fatalf("an unthresholded top-200 pass allocates %.0f objects", allocs)
	}
}
