package detlint_test

import (
	"testing"

	"chant/internal/analysis/analysistest"
	"chant/internal/analysis/detlint"
)

func TestDetlint(t *testing.T) {
	analysistest.Run(t, "testdata", detlint.Analyzer, "./...")
}
