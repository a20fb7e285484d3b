package ir

import (
	"fmt"
	"testing"
)

// syntheticIndex builds an index over nDocs documents drawn from
// nTerms terms with deterministic pseudo-random counts. Many documents
// share identical term profiles, so score ties are common and the
// deterministic doc-id tie-breaking is genuinely exercised.
func syntheticIndex(nDocs, nTerms int) *Index {
	docs := make([]map[int]int, nDocs)
	state := uint64(88172645463325252)
	next := func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	for d := range docs {
		// A handful of profile classes → plenty of exact score ties.
		profile := d % 17
		doc := map[int]int{profile % nTerms: 1 + profile%3}
		doc[next(nTerms)] += 1
		docs[d] = doc
	}
	return BuildIndex(docs, nTerms)
}

func TestQueryTopKMatchesFullSort(t *testing.T) {
	ix := syntheticIndex(5000, 23)
	for _, counts := range []map[int]int{
		{0: 1},
		{1: 2, 4: 1},
		{0: 1, 7: 1, 13: 2},
		{22: 5},
	} {
		full := ix.Query(counts, 0)
		for _, k := range []int{1, 2, 10, 100, len(full), len(full) + 50} {
			got := ix.Query(counts, k)
			want := full
			if k < len(full) {
				want = full[:k]
			}
			if len(got) != len(want) {
				t.Fatalf("counts %v k=%d: %d results, want %d", counts, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("counts %v k=%d result %d: %+v, full sort says %+v", counts, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestQueryTopKDeterministicAcrossRuns(t *testing.T) {
	// Map iteration order is randomized per run of the rank loop; the
	// bounded-heap selection must still return an identical list.
	ix := syntheticIndex(2000, 11)
	counts := map[int]int{0: 1, 3: 1}
	want := ix.Query(counts, 25)
	for run := range 20 {
		got := ix.Query(counts, 25)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d diverged at %d: %+v vs %+v", run, i, got[i], want[i])
			}
		}
	}
}

func benchIndex(b *testing.B, nDocs int) (*Index, map[int]int) {
	b.Helper()
	ix := syntheticIndex(nDocs, 23)
	return ix, map[int]int{0: 1, 7: 1, 13: 2}
}

// BenchmarkQueryTop10 measures the bounded-heap serving path: top-10
// from a large scored set.
func BenchmarkQueryTop10(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			ix, counts := benchIndex(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				ix.Query(counts, 10)
			}
		})
	}
}

// BenchmarkQueryTop10User is BenchmarkQueryTop10 personalised: the
// same scan with the user affinity blended into every matched
// document's score before the heap.
func BenchmarkQueryTop10User(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			ix, counts := benchIndex(b, n)
			qw := ix.QueryWeights(counts)
			user := make([]float64, ix.NumTerms())
			for i := range user {
				user[i] = float64(i%5) - 2
			}
			ix.Forward() // built once per index, outside the timed region
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				ix.RankBlended(qw, user, 0.25, 10, 0)
			}
		})
	}
}

// BenchmarkQueryFullSort measures the unlimited path the heap replaces
// when Limit > 0.
func BenchmarkQueryFullSort(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			ix, counts := benchIndex(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				ix.Query(counts, 0)
			}
		})
	}
}
