package experiments

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
)

// tinySetup is shared across tests: building the pipeline once keeps the
// package's test time reasonable.
var (
	tinyOnce  sync.Once
	tinySetup *Setup
)

func getTiny() *Setup {
	tinyOnce.Do(func() {
		tinySetup = NewSetup(datagen.Tiny())
		tinySetup.NumQueries = 32
	})
	return tinySetup
}

func TestRunningExampleReport(t *testing.T) {
	out := RunningExample()
	for _, want := range []string{
		"d12=3.0000",     // Figure 3: √9
		"D12=1.7321",     // Section IV-A: √3
		"D̂12=1.38",      // Section IV-D: √1.92
		"concept",        // clustering section
		"{folk, people}", // paper's expected grouping
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("running example output missing %q:\n%s", want, out)
		}
	}
	// The distilled concepts must actually group folk+people vs laptop.
	if !strings.Contains(out, "folk, people") {
		t.Fatalf("clustering did not reproduce {folk, people}:\n%s", out)
	}
}

func TestTable1Judgments(t *testing.T) {
	s := getTiny()
	res := Table1(s, 3)
	if len(res.Rows) == 0 {
		t.Fatal("no pairs judged")
	}
	// Ground truth sanity: rows are half related, half unrelated (up to
	// availability).
	sawRelated, sawUnrelated := false, false
	for _, r := range res.Rows {
		if r.Human {
			sawRelated = true
		} else {
			sawUnrelated = true
		}
	}
	if !sawRelated || !sawUnrelated {
		t.Fatalf("degenerate pair selection: %+v", res.Rows)
	}
	if out := res.Render(); !strings.Contains(out, "TABLE I") {
		t.Fatal("render missing header")
	}
}

func TestTable2RawVsClean(t *testing.T) {
	rows := Table2([]*Setup{getTiny()})
	if len(rows) != 1 {
		t.Fatalf("want 1 row, got %d", len(rows))
	}
	r := rows[0]
	if r.Clean.Tags >= r.Raw.Tags || r.Clean.Assignments >= r.Raw.Assignments {
		t.Fatalf("cleaning did not shrink: %+v", r)
	}
	if out := RenderTable2(rows); !strings.Contains(out, "tiny") {
		t.Fatal("render missing dataset name")
	}
}

func TestTable3Scores(t *testing.T) {
	s := getTiny()
	res := Table3(s)
	for name, acc := range map[string]float64{
		"CubeLSI": res.CubeLSI.JCNAvg,
		"CubeSim": res.CubeSim.JCNAvg,
		"LSI":     res.LSI.JCNAvg,
	} {
		if acc <= 0 {
			t.Fatalf("%s JCNavg = %v, want positive", name, acc)
		}
	}
	if res.CubeLSI.Evaluated == 0 {
		t.Fatal("no tags evaluated")
	}
	if out := res.Render(); !strings.Contains(out, "TABLE III") {
		t.Fatal("render missing header")
	}
}

func TestTable4Clusters(t *testing.T) {
	s := getTiny()
	clusters := Table4(s, 5)
	if len(clusters) == 0 {
		t.Fatal("no clusters")
	}
	for _, c := range clusters {
		if len(c.Tags) < 2 {
			t.Fatalf("cluster with < 2 tags reported: %+v", c)
		}
		if c.Purity < 0 || c.Purity > 1 {
			t.Fatalf("purity out of range: %+v", c)
		}
	}
	// Sorted by purity descending.
	for i := 1; i < len(clusters); i++ {
		if clusters[i].Purity > clusters[i-1].Purity+1e-12 {
			t.Fatal("clusters not sorted by purity")
		}
	}
}

func TestTable5BudgetAndTimes(t *testing.T) {
	s := getTiny()
	row := Table5(s, 30*time.Second)
	if row.CubeLSI <= 0 {
		t.Fatal("CubeLSI preprocessing time not measured")
	}
	if row.DNF {
		t.Fatalf("tiny corpus should finish the dense pass within 30s: %+v", row)
	}
	// A budget already spent when the dense pass first polls it takes the
	// DNF path, with an estimate extrapolated from the one row that always
	// completes.
	dnf := table5(s, func(time.Duration) bool { return false })
	if !dnf.DNF {
		t.Fatal("an exhausted budget should not finish")
	}
	if dnf.Estimated <= dnf.CubeSim {
		t.Fatalf("estimate %v should exceed measured truncated time %v", dnf.Estimated, dnf.CubeSim)
	}
	if out := RenderTable5([]Table5Row{dnf}, 0); !strings.Contains(out, "DNF, est") {
		t.Fatalf("DNF row rendered without its estimate:\n%s", out)
	}
}

func TestTable6QuerySpeed(t *testing.T) {
	s := getTiny()
	row := Table6(s)
	if row.CubeLSI <= 0 || row.FolkRank <= 0 {
		t.Fatalf("query times missing: %+v", row)
	}
	// The paper's orders-of-magnitude gap: demand at least a 3× margin
	// even at tiny scale.
	if row.FolkRank < 3*row.CubeLSI {
		t.Fatalf("FolkRank %v should be much slower than CubeLSI %v", row.FolkRank, row.CubeLSI)
	}
}

func TestTable7MemoryGap(t *testing.T) {
	s := getTiny()
	row := Table7(s)
	if row.DenseBytes <= row.SmallBytes*10 {
		t.Fatalf("dense F̂ (%d) should dwarf S+Y2 (%d)", row.DenseBytes, row.SmallBytes)
	}
}

func TestFigure4ShapeOnTiny(t *testing.T) {
	s := getTiny()
	res := Figure4(s)
	if len(res.Curves) != 6 {
		t.Fatalf("want 6 curves, got %d", len(res.Curves))
	}
	for m, vals := range res.Curves {
		for i, v := range vals {
			if v < 0 || v > 1+1e-9 {
				t.Fatalf("%s NDCG@%d = %v out of range", m, res.Cutoffs[i], v)
			}
		}
	}
	// The paper's key internal comparison: decomposition beats raw slice
	// distances.
	if res.MeanNDCG("CubeLSI") <= res.MeanNDCG("CubeSim") {
		t.Fatalf("CubeLSI (%.3f) should outrank CubeSim (%.3f)",
			res.MeanNDCG("CubeLSI"), res.MeanNDCG("CubeSim"))
	}
	if out := res.Render(); !strings.Contains(out, "FIGURE 4") {
		t.Fatal("render missing header")
	}
}

func TestFigure5Monotonicity(t *testing.T) {
	s := getTiny()
	pts := Figure5(s, []float64{2, 8})
	if len(pts) != 2 {
		t.Fatalf("want 2 points, got %d", len(pts))
	}
	// Higher reduction ratio → smaller core → no slower.
	if pts[1].Time > pts[0].Time*2 {
		t.Fatalf("c=8 (%v) should not be much slower than c=2 (%v)", pts[1].Time, pts[0].Time)
	}
	if pts[0].J2 <= pts[1].J2 {
		t.Fatalf("core dims should shrink with ratio: %+v", pts)
	}
}

func TestSetupCachesAndDeterminism(t *testing.T) {
	s := getTiny()
	if s.Pipeline() != s.Pipeline() {
		t.Fatal("pipeline not cached")
	}
	if len(s.Queries()) != len(s.Queries()) {
		t.Fatal("queries not cached")
	}
	if got := len(s.Rankers()); got != 6 {
		t.Fatalf("want 6 rankers, got %d", got)
	}
}
