package handleleak_test

import (
	"testing"

	"chant/internal/analysis/analysistest"
	"chant/internal/analysis/handleleak"
)

func TestHandleleak(t *testing.T) {
	analysistest.Run(t, "testdata", handleleak.Analyzer, "./internal/comm/leakfix")
}

// TestCheckpointFixture covers the coordinated-snapshot capture shapes:
// pooled messages held in a checkpoint's in-flight log are ownership
// transfers, not leaks; bailing out of the capture while owning one is.
func TestCheckpointFixture(t *testing.T) {
	analysistest.Run(t, "testdata", handleleak.Analyzer, "./internal/comm/ckptfix")
}
