package eval

import (
	"math"
	"testing"

	"repro/internal/ir"
	"repro/internal/mat"
	"repro/internal/semnet"
	"repro/internal/tagging"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNDCGPerfectRanking(t *testing.T) {
	all := []int{2, 1, 0, 0}
	// Ranked exactly by relevance.
	if got := NDCGAtN([]int{2, 1, 0, 0}, all, 4); !almostEq(got, 1, 1e-12) {
		t.Fatalf("perfect ranking NDCG = %v, want 1", got)
	}
}

func TestNDCGWorstRanking(t *testing.T) {
	all := []int{2, 1, 0, 0}
	got := NDCGAtN([]int{0, 0, 1, 2}, all, 4)
	if got >= 1 || got <= 0 {
		t.Fatalf("inverted ranking NDCG = %v, want in (0,1)", got)
	}
}

func TestNDCGHandComputed(t *testing.T) {
	// ranked = [1, 2], all = [2, 1].
	// DCG = (2¹−1)/log₂2 + (2²−1)/log₂3 = 1 + 3/1.58496 = 2.8928.
	// IDCG = 3/1 + 1/1.58496 = 3.6309. NDCG = 0.7967.
	got := NDCGAtN([]int{1, 2}, []int{2, 1}, 2)
	want := (1 + 3/math.Log2(3)) / (3 + 1/math.Log2(3))
	if !almostEq(got, want, 1e-12) {
		t.Fatalf("NDCG = %v, want %v", got, want)
	}
}

func TestNDCGShortList(t *testing.T) {
	// Missing positions count as zero gain.
	all := []int{2, 2, 0}
	short := NDCGAtN([]int{2}, all, 2)
	full := NDCGAtN([]int{2, 2}, all, 2)
	if short >= full {
		t.Fatalf("short list %v should score below full list %v", short, full)
	}
}

func TestNDCGNoRelevantResources(t *testing.T) {
	if got := NDCGAtN([]int{0, 0}, []int{0, 0, 0}, 2); got != 0 {
		t.Fatalf("no relevant resources: NDCG = %v, want 0", got)
	}
}

func TestNDCGMonotoneInRelevancePlacement(t *testing.T) {
	// Moving a relevant result up strictly improves NDCG.
	all := []int{2, 0, 0, 0}
	lower := NDCGAtN([]int{0, 0, 2, 0}, all, 4)
	higher := NDCGAtN([]int{0, 2, 0, 0}, all, 4)
	top := NDCGAtN([]int{2, 0, 0, 0}, all, 4)
	if !(lower < higher && higher < top) {
		t.Fatalf("NDCG not monotone: %v %v %v", lower, higher, top)
	}
}

// fixedRanker returns a canned result list.
type fixedRanker struct{ res []ir.Scored }

func (f fixedRanker) Query(tags []string, topN int) []ir.Scored {
	if topN > 0 && len(f.res) > topN {
		return f.res[:topN]
	}
	return f.res
}

func TestNDCGCurve(t *testing.T) {
	// Two resources; resource 0 relevant, ranked first → NDCG 1 at all
	// cutoffs.
	r := fixedRanker{res: []ir.Scored{{Doc: 0, Score: 1}, {Doc: 1, Score: 0.5}}}
	judge := func(q, res int) int {
		if res == 0 {
			return 2
		}
		return 0
	}
	curve := NDCGCurve(r, [][]string{{"x"}, {"y"}}, judge, 2, []int{1, 2})
	if !almostEq(curve[1], 1, 1e-12) || !almostEq(curve[2], 1, 1e-12) {
		t.Fatalf("curve = %v, want all 1", curve)
	}
}

func buildLexiconAndTags(t *testing.T) (*tagging.Dataset, *semnet.Taxonomy) {
	t.Helper()
	tax := semnet.New()
	music := tax.AddNode(tax.Root(), "music-cat")
	tax.AddNode(music, "audio")
	tax.AddNode(music, "mp3")
	tech := tax.AddNode(tax.Root(), "tech-cat")
	tax.AddNode(tech, "laptop")
	for _, w := range []string{"audio", "mp3", "laptop"} {
		tax.AddCount(w, 10)
	}
	tax.ComputeIC()

	ds := tagging.NewDataset()
	// Interning order fixes tag ids: audio=0, mp3=1, laptop=2, zzz=3.
	ds.Add("u1", "audio", "r1")
	ds.Add("u1", "mp3", "r1")
	ds.Add("u1", "laptop", "r2")
	ds.Add("u1", "zzz", "r2") // not in lexicon
	return ds, tax
}

func TestTagDistanceAccuracyGoodVsBad(t *testing.T) {
	ds, tax := buildLexiconAndTags(t)
	// Good method: audio↔mp3 nearest each other, laptop nearest zzz (but
	// zzz is out of lexicon → skipped) — craft laptop's neighbor as mp3.
	good := mat.FromRows([][]float64{
		{0, 0.1, 5, 9},
		{0.1, 0, 5, 9},
		{5, 5, 0, 9},
		{9, 9, 9, 0},
	})
	// Bad method: audio's nearest is laptop.
	bad := mat.FromRows([][]float64{
		{0, 5, 0.1, 9},
		{5, 0, 0.1, 9},
		{0.1, 0.1, 0, 9},
		{9, 9, 9, 0},
	})
	ga := TagDistanceAccuracy(ds, good, tax)
	ba := TagDistanceAccuracy(ds, bad, tax)
	if ga.Evaluated == 0 || ba.Evaluated == 0 {
		t.Fatal("no tags evaluated")
	}
	if ga.JCNAvg >= ba.JCNAvg {
		t.Fatalf("good method JCNavg %v should beat bad %v", ga.JCNAvg, ba.JCNAvg)
	}
	if ga.RankAvg >= ba.RankAvg {
		t.Fatalf("good method Rankavg %v should beat bad %v", ga.RankAvg, ba.RankAvg)
	}
}

func TestTagDistanceAccuracySkipsOutOfLexicon(t *testing.T) {
	ds, tax := buildLexiconAndTags(t)
	// Every in-lexicon tag's nearest neighbor is zzz (id 3): nothing can
	// be evaluated.
	d := mat.FromRows([][]float64{
		{0, 5, 5, 0.1},
		{5, 0, 5, 0.1},
		{5, 5, 0, 0.1},
		{0.1, 0.1, 0.1, 0},
	})
	acc := TagDistanceAccuracy(ds, d, tax)
	if acc.Evaluated != 0 {
		t.Fatalf("Evaluated = %d, want 0", acc.Evaluated)
	}
}

func TestMemoryAccounting(t *testing.T) {
	// Last.fm at c=50 (Table VII): F̂ is 3897×3326×2849 ≈ 88 GB circa
	// 8-byte entries... the paper says 88 GB⁠. Verify the same arithmetic.
	fh := DenseTensorBytes(3897, 3326, 2849)
	if got := float64(fh) / (1 << 30); math.Abs(got-275) > 25 {
		// 36.9e9 entries × 8 B ≈ 275 GiB. (The paper's 88 GB corresponds
		// to ~2.4 bytes/entry — likely float32 plus compression; we
		// report the float64 figure.)
		t.Fatalf("dense bytes = %.0f GiB, want ≈275", got)
	}
	small := CoreAndFactorBytes(78, 67, 57, 3326)
	if small >= fh/1000 {
		t.Fatalf("core+factor %d should be ≪ dense %d", small, fh)
	}
	if FormatBytes(small) == "" || FormatBytes(fh) == "" {
		t.Fatal("FormatBytes empty")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512 B",
		2048:    "2.0 KB",
		3 << 20: "3.0 MB",
		5 << 30: "5.0 GB",
		7 << 40: "7.0 TB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Fatalf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}
