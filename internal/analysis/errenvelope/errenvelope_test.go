package errenvelope_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/errenvelope"
)

// TestPositive reproduces the bug class inside a service-binary
// package path: raw http.Error and bare 4xx/5xx WriteHeader calls.
func TestPositive(t *testing.T) {
	analysistest.Run(t, ".", errenvelope.Analyzer, "cmd/cubelsiserve")
}

// TestNegative covers what stays legal in a service binary: 2xx/3xx
// status lines and statuses the handler computes at runtime. The
// fixture's path is not in the default scope, so -pkgs names it.
func TestNegative(t *testing.T) {
	pkgs := errenvelope.Analyzer.Flags.Lookup("pkgs")
	defer pkgs.Value.Set(pkgs.Value.String())
	if err := pkgs.Value.Set("cmd/cubelsiworker"); err != nil {
		t.Fatal(err)
	}
	analysistest.Run(t, ".", errenvelope.Analyzer, "cmd/cubelsiworker")
}

// TestOutOfScope proves the envelope invariant binds service binaries
// only.
func TestOutOfScope(t *testing.T) {
	analysistest.Run(t, ".", errenvelope.Analyzer, "plain")
}
