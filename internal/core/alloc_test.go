package core

import (
	"context"
	"runtime"
	"testing"

	"bwaver/internal/readsim"
)

// allocatedPerBase runs f and returns the bytes it allocated per base of ref.
func allocatedPerBase(t *testing.T, bases int, f func()) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(bases)
}

// TestConstructionAllocationBudget keeps construction memory proportional to
// what construction returns. At 1 Mbp a build without the prefix table
// allocates the suffix array (4 bytes per base), the BWT (1), the node bitmaps
// (1/8 per tree level) and the structure: 6.5 bytes per base where the
// construction this replaced took 39.0. EnsureMem adds the extracted
// reference (1), its reversal (1), the reverse direction's array, BWT,
// bitmaps and structure (5.6) and the k = 9 short-pattern table (4.2): 12.6
// where it took 45.0. The budgets leave room for a wider alphabet's bucket
// counters, not for another copy of the text.
func TestConstructionAllocationBudget(t *testing.T) {
	ref, err := readsim.Chr21Like(1, 1e6/40088619.0)
	if err != nil {
		t.Fatal(err)
	}
	var ix *Index
	build := allocatedPerBase(t, len(ref), func() {
		ix, err = BuildIndexCtx(context.Background(), ref, IndexConfig{FtabK: 0})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("BuildIndexCtx allocated %.2f bytes per base", build)
	if build > 8 {
		t.Errorf("BuildIndexCtx allocated %.2f bytes per base, budget 8", build)
	}
	mem := allocatedPerBase(t, len(ref), func() { err = ix.EnsureMem() })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("EnsureMem allocated %.2f bytes per base", mem)
	if mem > 14.5 {
		t.Errorf("EnsureMem allocated %.2f bytes per base, budget 14.5", mem)
	}
}
