package wiretaint_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/wiretaint"
)

func TestWiretaint(t *testing.T) {
	analysistest.Run(t, "testdata", wiretaint.Analyzer, "controlplane")
}

// TestWiretaintAllocSizes runs wiretaint over allocation sizes in every
// form: make, strings.Repeat, Builder.Grow, and sizes carried through a
// return value or a channel.
func TestWiretaintAllocSizes(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "alloc"), wiretaint.Analyzer, "controlplane")
}
