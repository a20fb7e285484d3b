//go:build race

// Package race reports whether the binary was built with the race
// detector, for tests whose assertions the detector's own behaviour
// invalidates: under -race sync.Pool drops a quarter of all Puts at
// random, so allocation ceilings on pooled scratch cannot hold.
package race

// Enabled is true when the race detector is compiled in.
const Enabled = true
