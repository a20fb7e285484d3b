package codec

import (
	"fmt"
	"os"
	"runtime"
	"sync"
)

// Mapping is a read-only view of a model file, memory-mapped where the
// platform supports it (read into the heap otherwise). A model decoded
// from a mapping aliases its numeric payloads, so Close must
// not be called while the model (or an engine built on it) is in use; a
// finalizer releases leaked mappings.
type Mapping struct {
	data    []byte
	mapped  bool
	release func() error
	once    sync.Once
	err     error
}

// Mapped reports whether the view is an actual memory mapping (false on
// the read-into-heap fallback).
func (mp *Mapping) Mapped() bool { return mp != nil && mp.mapped }

// Size returns the byte length of the view.
func (mp *Mapping) Size() int64 {
	if mp == nil {
		return 0
	}
	return int64(len(mp.data))
}

// Close releases the mapping. It is idempotent; only the first call
// does work.
func (mp *Mapping) Close() error {
	if mp == nil {
		return nil
	}
	mp.once.Do(func() {
		runtime.SetFinalizer(mp, nil)
		if mp.release != nil {
			mp.err = mp.release()
		}
		mp.data = nil
	})
	return mp.err
}

// openMapping maps path read-only (or reads it into the heap on
// platforms without mmap support).
func openMapping(path string) (*Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	data, release, mapped, err := mmapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("codec: mmap %s: %w", path, err)
	}
	mp := &Mapping{data: data, mapped: mapped, release: release}
	runtime.SetFinalizer(mp, func(mp *Mapping) { mp.Close() })
	return mp, nil
}

// ReadMapped opens a model file through a memory mapping and parses it
// zero-copy against the mapped bytes with the parser Read uses —
// milliseconds for any model size, with the page cache shared across
// replicas. The returned model's Mapped field owns the mapping; on error
// the mapping is released before returning.
func ReadMapped(path string) (*Model, error) {
	mp, err := openMapping(path)
	if err != nil {
		return nil, err
	}
	m, err := parseAligned(mp.data)
	if err != nil {
		mp.Close()
		return nil, err
	}
	m.Mapped = mp
	return m, nil
}
