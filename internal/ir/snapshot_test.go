package ir

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func snapshotTestIndex() *Index {
	docs := []map[int]int{
		{0: 2, 1: 1},
		{1: 3},
		{0: 1, 2: 2},
		{},
	}
	return BuildIndex(docs, 3)
}

func TestSnapshotRoundtrip(t *testing.T) {
	ix := snapshotTestIndex()
	got, err := FromSnapshot(ix.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDocs() != ix.NumDocs() || got.NumTerms() != ix.NumTerms() {
		t.Fatalf("dims changed: %d/%d vs %d/%d", got.NumDocs(), got.NumTerms(), ix.NumDocs(), ix.NumTerms())
	}
	for _, q := range []map[int]int{{0: 1}, {1: 2}, {0: 1, 2: 1}} {
		a, b := ix.Query(q, 0), got.Query(q, 0)
		if len(a) != len(b) {
			t.Fatalf("query %v: %d vs %d results", q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %v result %d: %+v vs %+v", q, i, a[i], b[i])
			}
		}
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	ix := snapshotTestIndex()
	s := ix.Snapshot()
	s.DF[0] = 99
	if len(s.Postings[0]) > 0 {
		s.Postings[0][0].Weight = 42
	}
	s2 := ix.Snapshot()
	if s2.DF[0] == 99 {
		t.Fatal("snapshot shares df with index")
	}
	if len(s2.Postings[0]) > 0 && s2.Postings[0][0].Weight == 42 {
		t.Fatal("snapshot shares postings with index")
	}
}

func TestFromSnapshotValidates(t *testing.T) {
	base := snapshotTestIndex().Snapshot()

	bad := *base
	bad.DF = bad.DF[:1]
	if _, err := FromSnapshot(&bad); err == nil {
		t.Fatal("short df should be rejected")
	}

	bad = *base
	bad.Norms = append(bad.Norms, 1)
	if _, err := FromSnapshot(&bad); err == nil {
		t.Fatal("extra norms should be rejected")
	}

	bad = *base
	bad.Postings = make([][]Posting, len(base.Postings))
	copy(bad.Postings, base.Postings)
	bad.Postings[0] = []Posting{{Doc: 999, Weight: 1}}
	if _, err := FromSnapshot(&bad); err == nil {
		t.Fatal("out-of-range doc should be rejected")
	}
}

// TestSnapshotWritesDocOrder pins the serialized form: every list in
// strictly ascending doc order whatever order the index keeps it in, so
// a load → snapshot round trip reproduces the snapshot exactly.
func TestSnapshotWritesDocOrder(t *testing.T) {
	ix := skewIndex(rand.New(rand.NewSource(1)), 200, 6)
	s := ix.Snapshot()
	for term, ps := range s.Postings {
		for i := 1; i < len(ps); i++ {
			if ps[i].Doc <= ps[i-1].Doc {
				t.Fatalf("term %d: snapshot lists doc %d after doc %d", term, ps[i].Doc, ps[i-1].Doc)
			}
		}
	}
	back, err := FromSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Snapshot(), s) {
		t.Fatal("load → snapshot changed the snapshot")
	}
	if !reflect.DeepEqual(back.postings, ix.postings) {
		t.Fatal("a loaded index keeps its lists in another order than the built one")
	}
}

// TestFromSnapshotRejectsUntrustedPostings holds the load to the shapes
// the early exit relies on; each error names the term and the doc.
func TestFromSnapshotRejectsUntrustedPostings(t *testing.T) {
	base := snapshotTestIndex().Snapshot() // term 1 lists docs 0 and 1
	cases := []struct {
		name   string
		mutate func(s *IndexSnapshot)
		want   string
	}{
		{"descending docs", func(s *IndexSnapshot) { s.Postings[1][0], s.Postings[1][1] = s.Postings[1][1], s.Postings[1][0] }, "term 1 lists doc 0 after doc 1"},
		{"duplicate doc", func(s *IndexSnapshot) { s.Postings[1][1].Doc = 0 }, "term 1 lists doc 0 after doc 0"},
		{"zero weight", func(s *IndexSnapshot) { s.Postings[1][1].Weight = 0 }, "term 1 doc 1 has weight 0"},
		{"negative weight", func(s *IndexSnapshot) { s.Postings[1][1].Weight = -0.5 }, "term 1 doc 1 has weight -0.5"},
		{"NaN weight", func(s *IndexSnapshot) { s.Postings[1][1].Weight = math.NaN() }, "term 1 doc 1 has weight NaN"},
		{"infinite weight", func(s *IndexSnapshot) { s.Postings[1][1].Weight = math.Inf(1) }, "term 1 doc 1 has weight +Inf"},
		{"NaN norm", func(s *IndexSnapshot) { s.Norms[1] = math.NaN() }, "doc 1 has norm NaN"},
		{"infinite norm", func(s *IndexSnapshot) { s.Norms[3] = math.Inf(-1) }, "doc 3 has norm -Inf"},
		{"zero norm", func(s *IndexSnapshot) { s.Norms[1] = 0 }, "term 1 doc 1 has a posting but a zero norm"},
	}
	for _, c := range cases {
		s := *base
		s.Postings = make([][]Posting, len(base.Postings))
		for i, ps := range base.Postings {
			s.Postings[i] = slices.Clone(ps)
		}
		s.Norms = slices.Clone(base.Norms)
		c.mutate(&s)
		_, err := FromSnapshot(&s)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to contain %q", c.name, err, c.want)
		}
	}
	if _, err := FromSnapshot(base); err != nil {
		t.Fatalf("the unmutated snapshot is rejected: %v", err)
	}
}
