package embed

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/topk"
)

// ExactRerank as the rerank depth makes IVF keep every scanned candidate
// and rescore all of them against the full-precision rows: with
// nprobe = Lists the result is then bit-identical to NearestK (the
// parity mode golden tests pin).
const ExactRerank = math.MaxInt32

// Scorer is an approximate squared-distance oracle over the rows the IVF
// scans — the candidate-stage currency. quant.Int8 and quant.Float16
// satisfy it. SqDist must be safe for concurrent use.
type Scorer interface {
	SqDist(query []float64, row int) float64
}

// IVF is an inverted-file ANN index over the tag embedding, reusing the
// k-means concept centroids the offline pipeline already computes as the
// coarse quantizer: every tag sits in the list of its nearest centroid,
// and a query probes only the nprobe lists whose centroids are closest
// to the probe tag. Rank quality is a measured trade (recall@k vs lists
// probed), never assumed — TestIVFRecallImprovesWithProbes checks the
// curve.
//
// An IVF is immutable after NewIVF and safe for concurrent queries.
type IVF struct {
	e       *TagEmbedding
	centers *mat.Matrix
	lists   [][]int // lists[c] = tag ids assigned to centroid c, ascending
	scorer  Scorer  // optional quantized candidate scorer; nil = exact
}

// NewIVF builds the inverted lists by assigning every tag to its nearest
// centroid (ties to the lower list id, the cluster package's convention).
// centers must have the embedding's dimensionality and at least one row.
func NewIVF(e *TagEmbedding, centers *mat.Matrix) (*IVF, error) {
	if e == nil || centers == nil {
		return nil, fmt.Errorf("embed: IVF needs an embedding and centroids")
	}
	l, dim := centers.Dims()
	if l < 1 {
		return nil, fmt.Errorf("embed: IVF needs at least one centroid")
	}
	if dim != e.Dim() {
		return nil, fmt.Errorf("embed: centroid dim %d does not match embedding dim %d", dim, e.Dim())
	}
	ivf := &IVF{e: e, centers: centers, lists: make([][]int, l)}
	n := e.NumTags()
	for i := range n {
		ri := e.Row(i)
		best, bestD := 0, sqDistRows(ri, centers.Row(0))
		for c := 1; c < l; c++ {
			if d := sqDistRows(ri, centers.Row(c)); d < bestD {
				best, bestD = c, d
			}
		}
		ivf.lists[best] = append(ivf.lists[best], i)
	}
	return ivf, nil
}

// WithScorer returns a shallow copy of the index that scores candidates
// with the given approximate oracle instead of the exact rows. Survivors
// of the candidate stage are always rescored against the full-precision
// embedding before ranking, so a scorer can change which tags become
// candidates but never how the survivors are ordered.
func (v *IVF) WithScorer(s Scorer) *IVF {
	out := *v
	out.scorer = s
	return &out
}

// Lists returns the number of inverted lists (centroids).
func (v *IVF) Lists() int { return len(v.lists) }

// ListSizes reports the tag count of each inverted list, the skew a
// nprobe choice has to live with.
func (v *IVF) ListSizes() []int {
	sizes := make([]int, len(v.lists))
	for c, l := range v.lists {
		sizes[c] = len(l)
	}
	return sizes
}

// DefaultProbe is the nprobe used when a query passes nprobe ≤ 0:
// √Lists, the classic IVF balance point between coarse and fine work.
func (v *IVF) DefaultProbe() int {
	p := int(math.Round(math.Sqrt(float64(len(v.lists)))))
	if p < 1 {
		p = 1
	}
	return p
}

// NearestK returns the (approximately) k nearest tags to tag i, nearest
// first with ties broken by lower tag id — NearestK's contract over the
// probed subset. nprobe ≤ 0 selects DefaultProbe; nprobe ≥ Lists scans
// everything. rerank is the candidate depth C kept by the approximate
// stage before the exact rescue: the top max(k, rerank) candidates are
// rescored against the full-precision rows (always, when a quantized
// scorer is set) and the best k returned. rerank = ExactRerank keeps
// every candidate, which with nprobe = Lists reproduces the exact scan
// bit for bit.
func (v *IVF) NearestK(i, k, nprobe, rerank int) []Neighbor {
	n := v.e.NumTags()
	if i < 0 || i >= n {
		panic(fmt.Sprintf("embed: tag %d out of range [0,%d)", i, n))
	}
	if n <= 1 {
		return nil
	}
	if k <= 0 || k > n-1 {
		k = n - 1
	}
	if nprobe <= 0 {
		nprobe = v.DefaultProbe()
	}
	if nprobe > len(v.lists) {
		nprobe = len(v.lists)
	}
	// Candidate depth: keep at least k, cap at the n−1 the exact scan
	// would ever return (ExactRerank saturates here, keeping everything).
	c := k
	if rerank > c {
		c = rerank
	}
	if c > n-1 {
		c = n - 1
	}

	probe := v.e.Row(i)
	order := v.rankLists(probe)

	// Candidate stage: bounded selection on (approximate) squared
	// distances over the probed lists — same strict total order as the
	// exact scan, so with an exact scorer and full probing the survivor
	// set is the exact top-c.
	h := topk.New(c, worseNeighbor)
	cols := v.e.m.Cols()
	data := v.e.m.Data()
	for _, li := range order[:nprobe] {
		for _, j := range v.lists[li] {
			if j == i {
				continue
			}
			var d float64
			if v.scorer != nil {
				d = v.scorer.SqDist(probe, j)
			} else {
				d = sqDistRows(probe, data[j*cols:(j+1)*cols])
			}
			h.Offer(Neighbor{Tag: j, Dist: d})
		}
	}
	all := h.Items()

	// Rerank stage: survivors are rescored against the full-precision
	// rows whenever the candidate scores were approximate, so the final
	// (distance, id) order never depends on quantization error.
	if v.scorer != nil {
		for idx := range all {
			j := all[idx].Tag
			all[idx].Dist = sqDistRows(probe, data[j*cols:(j+1)*cols])
		}
	}
	sortNeighbors(all)
	if len(all) > k {
		all = all[:k]
	}
	for idx := range all {
		all[idx].Dist = math.Sqrt(all[idx].Dist)
	}
	return all
}

// rankLists orders the inverted lists by centroid distance to the probe
// row, nearest first with ties to the lower list id.
func (v *IVF) rankLists(probe []float64) []int {
	type listDist struct {
		id int
		d  float64
	}
	ld := make([]listDist, len(v.lists))
	for c := range v.lists {
		ld[c] = listDist{id: c, d: sqDistRows(probe, v.centers.Row(c))}
	}
	// Insertion sort keeps this allocation-light; Lists is the concept
	// count (tens to low thousands), not the vocabulary.
	for a := 1; a < len(ld); a++ {
		x := ld[a]
		b := a - 1
		for b >= 0 && (ld[b].d > x.d || (ld[b].d == x.d && ld[b].id > x.id)) {
			ld[b+1] = ld[b]
			b--
		}
		ld[b+1] = x
	}
	order := make([]int, len(ld))
	for a, l := range ld {
		order[a] = l.id
	}
	return order
}

// Recall measures recall@k of this index against the exact scan for the
// given probe tags: the mean fraction of each exact top-k set recovered
// by the ANN top-k at the given nprobe and rerank. This is the measured
// curve the benchmarks report — the ANN contract is empirical, not
// assumed.
func (v *IVF) Recall(probes []int, k, nprobe, rerank int) float64 {
	if len(probes) == 0 {
		return 1
	}
	var sum float64
	for _, i := range probes {
		exact := v.e.NearestK(i, k)
		if len(exact) == 0 {
			sum++
			continue
		}
		want := make(map[int]bool, len(exact))
		for _, nb := range exact {
			want[nb.Tag] = true
		}
		hit := 0
		for _, nb := range v.NearestK(i, k, nprobe, rerank) {
			if want[nb.Tag] {
				hit++
			}
		}
		sum += float64(hit) / float64(len(exact))
	}
	return sum / float64(len(probes))
}
