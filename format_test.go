package cubelsi

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLegacyModelFilesFailLoudly: a model file in one of the streaming
// formats v1–v3 fails to load, heap-decoded or mapped, with the codec's
// one-line message naming its version and the conversion route.
func TestLegacyModelFilesFailLoudly(t *testing.T) {
	v3, err := os.ReadFile(filepath.Join("internal", "codec", "testdata", "paper_v3.clsi"))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{"v3": v3,
		// Magic, version, lowercase flag, zero assignments.
		"v1": {'C', 'L', 'S', 'I', 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0},
		"v2": {'C', 'L', 'S', 'I', 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0},
	}
	for name, data := range files {
		path := filepath.Join(t.TempDir(), name+".clsi")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want := "model format " + name + ` is no longer readable; convert it with "cubelsi -load old.clsi -save new.clsi" built from commit fd1f040`
		for _, mapped := range []bool{false, true} {
			var opts []LoadOption
			if mapped {
				opts = append(opts, WithMapped())
			}
			if eng, err := LoadFile(path, opts...); eng != nil || err == nil || !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "\n") {
				t.Errorf("%s (mapped %v): err = %v, want one line containing %q", name, mapped, err, want)
			}
		}
	}
}

// TestV4FileRanksLikeV5Twin: a v4 file — a v5 model without user
// factors, its version field patched to 4, the only way a v4 file can
// still be made — loads heap-decoded and mapped, and ranks
// bit-identically to its v5 twin.
func TestV4FileRanksLikeV5Twin(t *testing.T) {
	var buf bytes.Buffer
	if err := buildCorpus(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	v5, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(buf.Bytes()[4:8], 4)
	path := filepath.Join(t.TempDir(), "v4.clsi")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]LoadOption{nil, {WithMapped()}} {
		v4, err := LoadFile(path, opts...)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRankings(t, v4, v5, "v4 vs v5")
		v4.Close()
	}
}
