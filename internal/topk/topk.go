// Package topk provides a bounded best-k selection heap shared by the
// serving paths that replaced full sorts: nearest-tag lookups over the
// embedding (internal/embed) and top-k document ranking (internal/ir).
package topk

// Heap keeps the k best items offered so far, in O(k) memory and
// O(log k) per better-than-worst offer. Internally it is a worst-at-root
// heap under the caller's worse comparator, so each superior candidate
// evicts the current worst in place.
//
// worse must be a strict total order for the selection to be unique
// (and therefore independent of offer order); break ties on a unique
// field such as a document or tag id.
type Heap[T any] struct {
	k     int
	worse func(a, b T) bool
	items []T
}

// New returns a heap selecting the k best items under worse (worse(a, b)
// reports whether a should be evicted before b).
func New[T any](k int, worse func(a, b T) bool) *Heap[T] {
	h := &Heap[T]{worse: worse}
	h.Reset(k)
	return h
}

// Reset empties the heap and rebounds it to k, keeping its storage: a
// pooled heap selects again without allocating once its storage covers k.
func (h *Heap[T]) Reset(k int) {
	if k < 0 {
		k = 0
	}
	h.k = k
	h.items = h.items[:0]
	if want := min(k, 1<<16); cap(h.items) < want { // grow incrementally for huge k
		h.items = make([]T, 0, want)
	}
}

// Offer considers one candidate.
func (h *Heap[T]) Offer(v T) {
	if h.k == 0 {
		return
	}
	if len(h.items) < h.k {
		h.items = append(h.items, v)
		h.siftUp(len(h.items) - 1)
		return
	}
	if h.worse(h.items[0], v) {
		h.items[0] = v
		h.siftDown(0)
	}
}

// Len returns the number of items currently kept.
func (h *Heap[T]) Len() int { return len(h.items) }

// Worst returns the item the next Offer competes with — the worst kept —
// once the heap holds k items; ok is false while it still has room (and
// always for k = 0). A caller can compare against it inline and skip
// Offer for every candidate the heap would turn away.
func (h *Heap[T]) Worst() (v T, ok bool) {
	if h.k == 0 || len(h.items) < h.k {
		return v, false
	}
	return h.items[0], true
}

// Items returns the kept items in heap (not sorted) order. The slice
// aliases the heap's storage; callers sort it as they see fit.
func (h *Heap[T]) Items() []T { return h.items }

func (h *Heap[T]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.worse(h.items[i], h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap[T]) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && h.worse(h.items[l], h.items[worst]) {
			worst = l
		}
		if r < n && h.worse(h.items[r], h.items[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		h.items[i], h.items[worst] = h.items[worst], h.items[i]
		i = worst
	}
}
