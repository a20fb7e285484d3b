package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// legacyFiles are model files in the streaming formats v1–v3 that
// preceded the aligned layout: a v3 file of the paper's running example,
// written by the last v3 writer, and crafted v1/v2 headers (magic,
// version, lowercase flag, zero assignments, empty user vocabulary).
func legacyFiles(t testing.TB) map[uint32][]byte {
	t.Helper()
	v3, err := os.ReadFile(filepath.Join("testdata", "paper_v3.clsi"))
	if err != nil {
		t.Fatal(err)
	}
	files := map[uint32][]byte{3: v3}
	for _, v := range []uint32{1, 2} {
		b := append(bytes.Clone(Magic[:]), 0, 0, 0, 0, 1)
		binary.LittleEndian.PutUint32(b[4:8], v)
		files[v] = append(b, make([]byte, 16)...)
	}
	return files
}

// legacyMessage is the one line every v1–v3 file is rejected with.
func legacyMessage(v uint32) string {
	return fmt.Sprintf(`codec: model format v%d is no longer readable; convert it with "cubelsi -load old.clsi -save new.clsi" built from commit fd1f040, the last that reads v1–v3`, v)
}

// TestLegacyFormatsRejected pins the rejection of the streaming formats
// through both entry points: the message names the file's version and
// the conversion route, on one line.
func TestLegacyFormatsRejected(t *testing.T) {
	for v, data := range legacyFiles(t) {
		path := filepath.Join(t.TempDir(), "old.clsi")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, readErr := Read(bytes.NewReader(data))
		_, mappedErr := ReadMapped(path)
		for name, err := range map[string]error{"Read": readErr, "ReadMapped": mappedErr} {
			if err == nil || err.Error() != legacyMessage(v) {
				t.Errorf("v%d via %s: err = %v, want %q", v, name, err, legacyMessage(v))
			}
		}
		if strings.Contains(legacyMessage(v), "\n") {
			t.Fatal("message spans lines")
		}
	}
}
