package ctxflow_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/ctxflow"
)

// TestPositive reproduces the bug class inside a targeted package
// path: exported entry points doing I/O or spawning goroutines without
// a context, and rooted contexts in library code.
func TestPositive(t *testing.T) {
	analysistest.Run(t, ".", ctxflow.Analyzer, "internal/core")
}

// TestNegative covers compliant code in a targeted package: contexts
// threaded through, HTTP handlers reaching the request context, and
// unexported helpers.
func TestNegative(t *testing.T) {
	analysistest.Run(t, ".", ctxflow.Analyzer, "internal/replicate")
}

// TestRetrieve covers the serving-side retrieval pipeline package added
// to the default scope: pure ranking code passes without a context, but
// I/O or goroutine growth without one is caught.
func TestRetrieve(t *testing.T) {
	analysistest.Run(t, ".", ctxflow.Analyzer, "internal/retrieve")
}

// TestOutOfScope proves the invariant is scoped: the same violations
// in a package outside -pkgs produce no diagnostics.
func TestOutOfScope(t *testing.T) {
	analysistest.Run(t, ".", ctxflow.Analyzer, "plain")
}
