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
// status lines and statuses the handler computes at runtime. They sit
// in legal.go beside the violations, with no want annotations, so any
// diagnostic there fails the run.
func TestNegative(t *testing.T) {
	analysistest.Run(t, ".", errenvelope.Analyzer, "cmd/cubelsiserve")
}

// TestOutOfScope proves the envelope invariant binds service binaries
// only.
func TestOutOfScope(t *testing.T) {
	analysistest.Run(t, ".", errenvelope.Analyzer, "plain")
}
