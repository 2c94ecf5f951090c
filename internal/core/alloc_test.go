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
// what construction returns, and a locating pass's memory to what it
// returns. At 1 Mbp a build without the prefix table allocates the suffix
// array (4 bytes per base), the node bitmaps (1/8 per tree level) and the
// structure — the transform streams from the array into the bitmaps and never
// exists whole: 5.6 bytes per base where the construction this replaced took
// 39.0, and 6.5 while it held the transform. The k = 10 prefix table adds its
// 4·(4^10+1) bytes of lower bounds, 4.2 more at this length: 9.6, where its
// intervals made it 13.8. EnsureMem reads the packed text the build
// attached and adds its reversal (1), the reverse direction's array, bitmaps
// and structure (4.6) and two k = 9 prefix tables of 4·(4^9+1) bytes (1.05
// each), the reverse one and a forward one of its own, since this index has
// none: 8.55, where a reference extracted one byte a base made it 9.56, the
// interleaved short-pattern table of lower-bound pairs (2.8) 10.25, that
// table's intervals 11.6 and the construction before 45.0. The
// budgets leave room for a wider alphabet's bucket counters, not for
// another copy of the text. A locating pass allocates its positions at
// their exact size, a chunk at a time: 4 bytes per occurrence and a small
// constant, not a doubling slab's garbage — and a warm one into the same
// results reuses the positions they hold. The packed text a build attaches
// adds 0.25 bytes per base to both builds.
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
	if build > 6 {
		t.Errorf("BuildIndexCtx allocated %.2f bytes per base, budget 6", build)
	}

	withTable := allocatedPerBase(t, len(ref), func() {
		_, err = BuildIndexCtx(context.Background(), ref, IndexConfig{FtabK: DefaultFtabK})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("BuildIndexCtx with the k = %d prefix table allocated %.2f bytes per base", DefaultFtabK, withTable)
	if withTable > 10 {
		t.Errorf("BuildIndexCtx with the prefix table allocated %.2f bytes per base, budget 10", withTable)
	}

	reads, err := readsim.Simulate(ref, readsim.ReadsConfig{Count: 2000, Length: 30, MappingRatio: 0.9, RevCompFraction: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	seqs := readsim.Seqs(reads)
	dst := make([]MapResult, len(seqs))
	for _, workers := range []int{1, 2} {
		opts := MapOptions{Locate: true, Workers: workers}
		if _, err := ix.MapReadsInto(dst, seqs, opts); err != nil { // warm-up
			t.Fatal(err)
		}
		var stats MapStats
		pass := allocatedPerBase(t, 1, func() { stats, err = ix.MapReadsInto(dst, seqs, opts) })
		if err != nil {
			t.Fatal(err)
		}
		const slack = 8 << 10 // the slab's size-class rounding, the workers' goroutines
		t.Logf("warm locating pass, %d workers: %.0f bytes allocated for %d positions", workers, pass, stats.Occurrences)
		if budget := 4*stats.Occurrences + slack; pass > float64(budget) {
			t.Errorf("warm locating pass, %d workers, allocated %.0f bytes for %d positions, budget %d", workers, pass, stats.Occurrences, budget)
		}
	}

	mem := allocatedPerBase(t, len(ref), func() { err = ix.EnsureMem() })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("EnsureMem allocated %.2f bytes per base", mem)
	if mem > 8.6 {
		t.Errorf("EnsureMem allocated %.2f bytes per base, budget 8.6", mem)
	}
}
