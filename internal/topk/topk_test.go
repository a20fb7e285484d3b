package topk

import (
	"sort"
	"testing"
)

type item struct{ score, id int }

// worse evicts lower scores first, ties by higher id.
func worse(a, b item) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.id > b.id
}

func TestSelectsBestK(t *testing.T) {
	// Deterministic pseudo-random stream with plenty of score ties.
	state := uint64(2463534242)
	next := func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	// One heap, Reset for every case: a reused heap — shrunk or grown,
	// with the previous selection still in its storage — must select
	// exactly as a fresh one.
	h := New(0, worse)
	for _, total := range []int{1, 10, 1000} {
		for _, k := range []int{1, 7, total, total + 5} {
			items := make([]item, total)
			for i := range items {
				items[i] = item{score: next(17), id: i}
			}
			h.Reset(k)
			for _, it := range items {
				h.Offer(it)
			}
			got := append([]item(nil), h.Items()...)
			sort.Slice(got, func(a, b int) bool { return worse(got[b], got[a]) })

			want := append([]item(nil), items...)
			sort.Slice(want, func(a, b int) bool { return worse(want[b], want[a]) })
			if k < len(want) {
				want = want[:k]
			}
			if len(got) != len(want) {
				t.Fatalf("total=%d k=%d: kept %d, want %d", total, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("total=%d k=%d rank %d: %+v, want %+v", total, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestOrderIndependence(t *testing.T) {
	items := []item{{5, 0}, {5, 1}, {5, 2}, {3, 3}, {9, 4}, {5, 5}}
	reference := New(3, worse)
	for _, it := range items {
		reference.Offer(it)
	}
	refSet := map[item]bool{}
	for _, it := range reference.Items() {
		refSet[it] = true
	}
	// Reversed offer order must select the same set.
	rev := New(3, worse)
	for i := len(items) - 1; i >= 0; i-- {
		rev.Offer(items[i])
	}
	for _, it := range rev.Items() {
		if !refSet[it] {
			t.Fatalf("selection depends on offer order: %+v not in %v", it, refSet)
		}
	}
}

func TestWorstIsTheEvictionBar(t *testing.T) {
	h := New(3, worse)
	for i, it := range []item{{5, 0}, {9, 1}, {5, 2}} {
		if _, ok := h.Worst(); ok {
			t.Fatalf("after %d offers of 3: Worst reported a full heap", i)
		}
		h.Offer(it)
	}
	if w, ok := h.Worst(); !ok || w != (item{5, 2}) {
		t.Fatalf("Worst = %+v, %v; want {5 2}, true", w, ok)
	}
	h.Offer(item{7, 3}) // evicts {5 2}
	if w, _ := h.Worst(); w != (item{5, 0}) {
		t.Fatalf("after eviction Worst = %+v, want {5 0}", w)
	}
	if _, ok := New(0, worse).Worst(); ok {
		t.Fatal("k=0 heap has no worst item")
	}
}

func TestZeroK(t *testing.T) {
	h := New(0, worse)
	h.Offer(item{1, 1})
	if h.Len() != 0 {
		t.Fatal("k=0 heap must keep nothing")
	}
	h2 := New(-3, worse)
	h2.Offer(item{1, 1})
	if h2.Len() != 0 {
		t.Fatal("negative k must behave as 0")
	}
}
