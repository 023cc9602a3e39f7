package analysis_test

import (
	"testing"

	"repro/internal/analysis"
)

func TestOwnercheck(t *testing.T) {
	runFixture(t, analysis.Ownercheck, "ownercheck")
}

// TestAtomiccheck runs ownercheck over the fixture for its two atomic
// markers, spsc and publishes.
func TestAtomiccheck(t *testing.T) {
	runFixture(t, analysis.Ownercheck, "ownercheck_atomic")
}
