package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/tucker"
)

// Figure4Cutoffs are the N values of the paper's NDCG@N plots.
var Figure4Cutoffs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 20}

// Figure4Result holds one dataset's NDCG curves per method.
type Figure4Result struct {
	Dataset string
	Cutoffs []int
	// Curves maps method name → NDCG@N values aligned with Cutoffs.
	Curves map[string][]float64
}

// Figure4 reproduces one panel of Figure 4: NDCG@N for all six ranking
// methods over the query workload, judged by the generator's ground
// truth (concept match = Relevant, category match = Partially Relevant).
func Figure4(s *Setup) *Figure4Result {
	queries := s.Queries()
	tagLists := make([][]string, len(queries))
	for i, q := range queries {
		tagLists[i] = q.Tags
	}
	judge := func(qi, resource int) int { return s.Corpus.Relevance(queries[qi], resource) }
	numRes := s.Corpus.Clean.Resources.Len()

	res := &Figure4Result{Dataset: s.Params.Name, Cutoffs: Figure4Cutoffs, Curves: map[string][]float64{}}
	for _, r := range s.Rankers() {
		curve := eval.NDCGCurve(r, tagLists, judge, numRes, Figure4Cutoffs)
		vals := make([]float64, len(Figure4Cutoffs))
		for i, n := range Figure4Cutoffs {
			vals[i] = curve[n]
		}
		res.Curves[r.Name()] = vals
	}
	return res
}

// MethodOrder is the paper's legend order.
var MethodOrder = []string{"CubeLSI", "CubeSim", "FolkRank", "Freq", "LSI", "BOW"}

// Render prints the curves as a table (one row per method).
func (r *Figure4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 4 (%s): NDCG@N OF DIFFERENT RANKING METHODS\n", r.Dataset)
	fmt.Fprintf(&b, "%-10s", "N")
	for _, n := range r.Cutoffs {
		fmt.Fprintf(&b, "%7d", n)
	}
	b.WriteString("\n")
	for _, m := range MethodOrder {
		vals, ok := r.Curves[m]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-10s", m)
		for _, v := range vals {
			fmt.Fprintf(&b, "%7.3f", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// MeanNDCG returns a method's NDCG averaged over all cutoffs (used for
// the shape assertions of TestFigure4ShapeOnTiny).
func (r *Figure4Result) MeanNDCG(method string) float64 {
	vals := r.Curves[method]
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// Figure5Ratios are the x-axis reduction ratios of Figure 5.
var Figure5Ratios = []float64{20, 30, 40, 50, 100, 150, 200}

// Figure5Point is one measurement of the pre-processing-time sweep.
type Figure5Point struct {
	Ratio      float64
	J1, J2, J3 int
	Time       time.Duration
}

// Figure5 reproduces Figure 5 on one setup (the paper used Bibsonomy):
// CubeLSI pre-processing time as the reduction ratios c₁=c₂=c₃ sweep
// from 20 to 200. Higher ratios mean smaller cores and faster runs.
func Figure5(s *Setup, ratios []float64) []Figure5Point {
	if len(ratios) == 0 {
		ratios = Figure5Ratios
	}
	st := s.Corpus.Clean.Stats()
	out := make([]Figure5Point, 0, len(ratios))
	for _, c := range ratios {
		j1, j2, j3 := tucker.FromRatios(st.Users, st.Tags, st.Resources, c, c, c)
		p, err := core.Build(context.Background(), s.Corpus.Clean, core.Options{
			Tucker:   tucker.Options{J1: j1, J2: j2, J3: j3, MaxSweeps: s.Sweeps, Seed: uint64(s.Seed)},
			Spectral: cluster.SpectralOptions{K: minInt(s.K, j2), Seed: s.Seed},
		})
		if err != nil {
			// Background contexts are never cancelled, so this is unreachable.
			panic(err)
		}
		out = append(out, Figure5Point{Ratio: c, J1: j1, J2: j2, J3: j3, Time: p.Times.Offline()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ratio < out[j].Ratio })
	return out
}

// RenderFigure5 prints the sweep as a table.
func RenderFigure5(dataset string, pts []Figure5Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 5 (%s): CUBELSI PRE-PROCESSING TIME VS REDUCTION RATIOS\n", dataset)
	fmt.Fprintf(&b, "%-8s %-16s %12s\n", "c", "core dims", "time")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-8.0f %-16s %12s\n", p.Ratio,
			fmt.Sprintf("%d×%d×%d", p.J1, p.J2, p.J3), fmtDur(p.Time))
	}
	return b.String()
}
