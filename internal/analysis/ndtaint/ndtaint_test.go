package ndtaint_test

import (
	"testing"

	"chant/internal/analysis/analysistest"
	"chant/internal/analysis/ndtaint"
)

// TestNdtaint runs the analyzer whole-program over the fixture module: one
// call graph, interface resolution across packages, Finish over every pass.
func TestNdtaint(t *testing.T) {
	analysistest.Run(t, "testdata", ndtaint.Analyzer, "./...")
}
