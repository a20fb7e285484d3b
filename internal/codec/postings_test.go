package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ir"
)

// withPostings replaces m's index — empty on buildModel's corpus, where
// both concepts cover every resource — with one whose term 0 lists
// three documents and term 1 two, over m's concepts and resources.
func withPostings(m *Model) *Model {
	docs := make([]map[int]int, len(m.Resources))
	for d := range docs {
		docs[d] = map[int]int{}
	}
	docs[0][0], docs[0][1] = 2, 1
	docs[1][0] = 1
	docs[2][1] = 3
	docs[3][0] = 1
	m.Index = ir.BuildIndex(docs, m.K)
	return m
}

// untrustedPostings returns written copies of m's file, each with one
// index posting shape the loader must reject, keyed by the error text
// the load must name. The index section is located through the encoded
// bytes of the first posting list with two or more documents, and of
// the norms.
func untrustedPostings(t testing.TB) map[string][]byte {
	t.Helper()
	m := withPostings(buildModel(t))
	data := written(t, m)
	s := m.Index.Snapshot()
	term := -1
	for i, ps := range s.Postings {
		if len(ps) >= 2 {
			term = i
			break
		}
	}
	if term < 0 {
		t.Fatal("model has no posting list with two documents")
	}
	ps := s.Postings[term]
	var list, norms []byte
	list = binary.LittleEndian.AppendUint64(list, uint64(len(ps)))
	for _, p := range ps {
		list = binary.LittleEndian.AppendUint64(list, uint64(p.Doc))
		list = binary.LittleEndian.AppendUint64(list, math.Float64bits(p.Weight))
	}
	for _, v := range s.Norms {
		norms = binary.LittleEndian.AppendUint64(norms, math.Float64bits(v))
	}
	at, normsAt := bytes.Index(data, list), bytes.Index(data, norms)
	if at < 0 || at != bytes.LastIndex(data, list) || normsAt < 0 {
		t.Fatal("cannot locate the posting list and norms in the written model")
	}
	doc := func(i int) int { return at + 8 + 16*i }
	weight := func(i int) int { return doc(i) + 8 }
	d0, d1 := ps[0].Doc, ps[1].Doc
	put := func(b []byte, off int, v uint64) []byte {
		b = bytes.Clone(b)
		binary.LittleEndian.PutUint64(b[off:], v)
		return b
	}
	swapped := put(put(data, doc(0), uint64(d1)), doc(1), uint64(d0))
	swapped = put(put(swapped, weight(0), math.Float64bits(ps[1].Weight)), weight(1), math.Float64bits(ps[0].Weight))
	return map[string][]byte{
		fmt.Sprintf("term %d lists doc %d after doc %d", term, d0, d1):        swapped,
		fmt.Sprintf("term %d lists doc %d after doc %d", term, d0, d0):        put(data, doc(1), uint64(d0)),
		fmt.Sprintf("term %d doc %d has weight NaN", term, d1):                put(data, weight(1), math.Float64bits(math.NaN())),
		fmt.Sprintf("term %d doc %d has weight -1", term, d1):                 put(data, weight(1), math.Float64bits(-1)),
		fmt.Sprintf("doc %d has norm +Inf", d0):                               put(data, normsAt+8*d0, math.Float64bits(math.Inf(1))),
		fmt.Sprintf("term %d doc %d has a posting but a zero norm", term, d0): put(data, normsAt+8*d0, 0),
	}
}

// TestUntrustedPostingsRejected loads each posting shape the ranking's
// early exit cannot trust, through both readers, and expects an error
// naming the term and the doc.
func TestUntrustedPostingsRejected(t *testing.T) {
	for want, data := range untrustedPostings(t) {
		if _, err := Read(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Read: err = %v, want it to contain %q", err, want)
		}
		path := filepath.Join(t.TempDir(), "model.clsi")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadMapped(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ReadMapped: err = %v, want it to contain %q", err, want)
		}
	}
}

// TestLoadSaveByteIdentical pins that a loaded index, which keeps its
// lists in impact order, still writes them in doc-id order: load → save
// reproduces the file byte for byte, through both readers.
func TestLoadSaveByteIdentical(t *testing.T) {
	m := withPostings(withUserFactors(withLifecycle(buildModel(t))))
	data := written(t, m)
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written(t, got), data) {
		t.Fatal("Read → Write changed the file")
	}
	if !bytes.Equal(written(t, readMapped(t, m)), data) {
		t.Fatal("ReadMapped → Write changed the file")
	}
}
