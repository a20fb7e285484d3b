package codec

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/quant"
)

// FuzzLoad proves the decode path fails fast — an error, never a panic,
// a hang, or an unbounded allocation — on corrupt or truncated model
// bytes.
func FuzzLoad(f *testing.F) {
	// Seed with structurally valid files of both readable formats — the
	// v5 seeds cover each combination of the opt-in sections (the
	// quantized embedding views and the user-factor matrix), the v4 seeds
	// are the factor-free ones with the version patched to 4 — plus
	// systematic truncations and a few classic corruptions, so the fuzzer
	// starts from deep inside the format. The rejected shapes ride along:
	// the v1–v3 files, a set decomposition byte and one file per index
	// posting shape the loader refuses (untrustedPostings).
	var valid [][]byte
	for variant := range 8 { // bits: int8, float16, user factors
		m := withLifecycle(buildModel(f))
		if variant&1 != 0 {
			m.Quant8 = quant.QuantizeInt8(m.Embedding)
		}
		if variant&2 != 0 {
			m.Quant16 = quant.QuantizeFloat16(m.Embedding)
		}
		if variant&4 != 0 {
			withUserFactors(m)
		}
		data := written(f, m)
		valid = append(valid, data)
		if variant&4 == 0 {
			v4 := bytes.Clone(data)
			binary.LittleEndian.PutUint32(v4[4:8], VersionV4)
			valid = append(valid, v4)
		}
	}
	for _, data := range valid {
		f.Add(data)
		for _, frac := range []int{2, 3, 5, 10, 100} {
			f.Add(data[:len(data)/frac])
		}
		// Flip the version field.
		for _, ver := range []uint32{0, Version + 1, 1 << 30} {
			b := bytes.Clone(data)
			binary.LittleEndian.PutUint32(b[4:8], ver)
			f.Add(b)
		}
		// Blow up an interior length field.
		b := bytes.Clone(data)
		for i := 20; i+8 <= len(b) && i < 60; i += 8 {
			binary.LittleEndian.PutUint64(b[i:i+8], 1<<40)
		}
		f.Add(b)
	}
	for _, v := range []uint32{1, 2, 3} {
		f.Add(legacyFiles(f)[v])
	}
	f.Add(decompByteSet(f))
	f.Add(written(f, withPostings(buildModel(f))))
	for _, data := range untrustedPostings(f) {
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte("CLSI"))
	f.Add([]byte("not a model at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Bound the claimed-length amplification: decode must never
		// allocate more than a small multiple of the input, so a panic
		// (or OOM) here is a real bug.
		m, err := Read(bytes.NewReader(data))
		if err == nil && m == nil {
			t.Fatal("nil model with nil error")
		}
		if err != nil && m != nil {
			t.Fatal("non-nil model with error")
		}
	})
}
