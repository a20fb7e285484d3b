package main

import (
	"encoding/json"
	"testing"
)

func parse(t *testing.T, s string) *benchFile {
	t.Helper()
	var b benchFile
	if err := json.Unmarshal([]byte(s), &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

const baseJSON = `{
  "build": {"embedding_path": {"decompose_ms": 1000, "total_ms": 1200}},
  "decompose": {"workers": [{"workers": 1, "ms": 1000}, {"workers": 4, "ms": 300}]},
  "size_scaling": [
    {"tags": 1000, "v1_bytes": 800, "v2_bytes": 100, "v1_over_v2_ratio": 8},
    {"tags": 5000, "v1_bytes": 4000, "v2_bytes": 100, "v1_over_v2_ratio": 40}
  ]
}`

func TestCompareNoRegression(t *testing.T) {
	base := parse(t, baseJSON)
	head := parse(t, `{
      "build": {"embedding_path": {"decompose_ms": 1100, "total_ms": 1190}},
      "decompose": {"workers": [{"workers": 1, "ms": 1050}, {"workers": 4, "ms": 310}]}
    }`)
	if regs := regressions(compare(base, head, 0.25, 25)); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %+v", regs)
	}
}

func TestCompareCatchesRegression(t *testing.T) {
	base := parse(t, baseJSON)
	head := parse(t, `{
      "build": {"embedding_path": {"decompose_ms": 1600, "total_ms": 1210}},
      "decompose": {"workers": [{"workers": 1, "ms": 1000}, {"workers": 4, "ms": 900}]}
    }`)
	regs := regressions(compare(base, head, 0.25, 25))
	if len(regs) != 2 {
		t.Fatalf("want 2 regressions (decompose_ms and workers[4]), got %+v", regs)
	}
	if regs[0].name != "build.embedding_path.decompose_ms" {
		t.Fatalf("first regression %q", regs[0].name)
	}
	if regs[1].name != "decompose.workers[4].ms" {
		t.Fatalf("second regression %q", regs[1].name)
	}
}

func TestCompareAbsoluteFloorSuppressesJitter(t *testing.T) {
	// 10ms -> 18ms is an 80% regression but under the 25ms floor: tiny CI
	// presets jitter at this scale, so the gate must stay quiet.
	base := parse(t, `{"build": {"embedding_path": {"decompose_ms": 10, "total_ms": 12}}}`)
	head := parse(t, `{"build": {"embedding_path": {"decompose_ms": 18, "total_ms": 20}}}`)
	if regs := regressions(compare(base, head, 0.25, 25)); len(regs) != 0 {
		t.Fatalf("floor failed to suppress jitter: %+v", regs)
	}
}

func TestCompareToleratesOldBaseFormat(t *testing.T) {
	// A merge-base from before the decompose section existed must not
	// fail the gate on the new metrics.
	base := parse(t, `{"build": {"embedding_path": {"decompose_ms": 1000, "total_ms": 1200}}}`)
	head := parse(t, `{
      "build": {"embedding_path": {"decompose_ms": 900, "total_ms": 1100}},
      "decompose": {"workers": [{"workers": 1, "ms": 5000}]}
    }`)
	if regs := regressions(compare(base, head, 0.25, 25)); len(regs) != 0 {
		t.Fatalf("new metric without baseline must be skipped: %+v", regs)
	}
}

func TestCompareGatesUpdateSection(t *testing.T) {
	base := parse(t, `{
      "update": {"full_rebuild_ms": 2000, "warm_apply_ms": 400}
    }`)

	// Within threshold: quiet.
	head := parse(t, `{
      "update": {"full_rebuild_ms": 2100, "warm_apply_ms": 420}
    }`)
	if regs := regressions(compare(base, head, 0.25, 25)); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %+v", regs)
	}

	// A warm Apply that slowed 3x must trip the gate just like a
	// decompose regression would.
	head = parse(t, `{
      "update": {"full_rebuild_ms": 2000, "warm_apply_ms": 1200}
    }`)
	regs := regressions(compare(base, head, 0.25, 25))
	if len(regs) != 1 || regs[0].name != "update.warm_apply_ms" {
		t.Fatalf("want update.warm_apply_ms regression, got %+v", regs)
	}

	// Baselines predating the update section never fail on it.
	old := parse(t, `{"build": {"embedding_path": {"decompose_ms": 1000, "total_ms": 1200}}}`)
	if regs := regressions(compare(old, head, 0.25, 25)); len(regs) != 0 {
		t.Fatalf("update metrics without baseline must be skipped: %+v", regs)
	}
}

func TestCompareGatesStreamSection(t *testing.T) {
	base := parse(t, `{
      "stream": {"ingest_per_sec": 100000, "flush_to_visible_ms": 400}
    }`)

	// Within threshold: quiet (throughput may wobble down a little, the
	// flush may slow a little).
	head := parse(t, `{
      "stream": {"ingest_per_sec": 90000, "flush_to_visible_ms": 430}
    }`)
	if regs := regressions(compare(base, head, 0.25, 25)); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %+v", regs)
	}

	// A flush-to-visible latency past threshold+floor trips the gate like
	// any other timing.
	head = parse(t, `{
      "stream": {"ingest_per_sec": 100000, "flush_to_visible_ms": 900}
    }`)
	regs := regressions(compare(base, head, 0.25, 25))
	if len(regs) != 1 || regs[0].name != "stream.flush_to_visible_ms" {
		t.Fatalf("want stream.flush_to_visible_ms regression, got %+v", regs)
	}

	// Throughput gates downward: an ingest rate that fell below
	// base·(1−threshold) regresses even though every timing held.
	head = parse(t, `{
      "stream": {"ingest_per_sec": 60000, "flush_to_visible_ms": 400}
    }`)
	regs = regressions(compare(base, head, 0.25, 25))
	if len(regs) != 1 || regs[0].name != "stream.ingest_per_sec" {
		t.Fatalf("want stream.ingest_per_sec regression, got %+v", regs)
	}
	if !regs[0].throughput {
		t.Fatalf("ingest_per_sec must be marked throughput: %+v", regs[0])
	}

	// A faster ingest rate never regresses, no matter how large the jump.
	head = parse(t, `{
      "stream": {"ingest_per_sec": 500000, "flush_to_visible_ms": 400}
    }`)
	if regs := regressions(compare(base, head, 0.25, 25)); len(regs) != 0 {
		t.Fatalf("faster throughput must not regress: %+v", regs)
	}

	// Baselines predating the stream section never fail on it.
	old := parse(t, `{"build": {"embedding_path": {"decompose_ms": 1000, "total_ms": 1200}}}`)
	if regs := regressions(compare(old, head, 0.25, 25)); len(regs) != 0 {
		t.Fatalf("stream metrics without baseline must be skipped: %+v", regs)
	}
}

func TestCompareGatesAnnSection(t *testing.T) {
	base := parse(t, `{
      "ann": {
        "tags": [
          {"tags": 10000, "p99_ms": 0.8, "recall_at_10": 0.98},
          {"tags": 100000, "p99_ms": 4.0, "recall_at_10": 0.97}
        ],
        "mmap": {"mapped_load_ms": 2.0}
      }
    }`)

	// Within threshold and recall tolerance: quiet.
	head := parse(t, `{
      "ann": {
        "tags": [
          {"tags": 10000, "p99_ms": 0.9, "recall_at_10": 0.975},
          {"tags": 100000, "p99_ms": 4.4, "recall_at_10": 0.972}
        ],
        "mmap": {"mapped_load_ms": 2.2}
      }
    }`)
	if regs := regressions(compare(base, head, 0.25, 25)); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %+v", regs)
	}

	// A p99 that tripled must trip the gate despite sitting far below the
	// CLI's 25ms jitter floor — ANN metrics carry their own 1ms floor.
	head = parse(t, `{
      "ann": {"tags": [{"tags": 100000, "p99_ms": 12.0, "recall_at_10": 0.97}]}
    }`)
	regs := regressions(compare(base, head, 0.25, 25))
	if len(regs) != 1 || regs[0].name != "ann.tags[100000].p99_ms" {
		t.Fatalf("want ann.tags[100000].p99_ms regression, got %+v", regs)
	}

	// Recall gates the other way: a faster head that lost recall beyond
	// the 0.01 tolerance is a regression even though every timing improved.
	head = parse(t, `{
      "ann": {"tags": [{"tags": 100000, "p99_ms": 1.0, "recall_at_10": 0.90}]}
    }`)
	regs = regressions(compare(base, head, 0.25, 25))
	if len(regs) != 1 || regs[0].name != "ann.tags[100000].recall_at_10" {
		t.Fatalf("want ann.tags[100000].recall_at_10 regression, got %+v", regs)
	}

	// The mapped-load timing is gated with the same 1ms floor.
	head = parse(t, `{
      "ann": {"mmap": {"mapped_load_ms": 9.0}}
    }`)
	regs = regressions(compare(base, head, 0.25, 25))
	if len(regs) != 1 || regs[0].name != "ann.mmap.mapped_load_ms" {
		t.Fatalf("want ann.mmap.mapped_load_ms regression, got %+v", regs)
	}

	// Baselines predating the ann section never fail on it.
	old := parse(t, `{"build": {"embedding_path": {"decompose_ms": 1000, "total_ms": 1200}}}`)
	if regs := regressions(compare(old, head, 0.25, 25)); len(regs) != 0 {
		t.Fatalf("ann metrics without baseline must be skipped: %+v", regs)
	}
}

func TestSizeViolations(t *testing.T) {
	b := parse(t, baseJSON)
	// The 1000-tag point is below min-tags, so its 8x ratio is fine; the
	// 5000-tag point holds 40x.
	if v := sizeViolations(b, 5000, 10); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
	// Raising the floor above 40x must trip the 5000-tag point.
	if v := sizeViolations(b, 5000, 50); len(v) != 1 {
		t.Fatalf("want 1 violation, got %v", v)
	}
}
