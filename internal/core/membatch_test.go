package core

import (
	"testing"

	"bwaver/internal/dna"
	"bwaver/internal/readsim"
)

// memTestReads simulates an interleaved paired batch over ref.
func memTestReads(t *testing.T, ref dna.Seq, pairs, readLen int) []dna.Seq {
	t.Helper()
	sim, err := readsim.SimulatePairs(ref, readsim.PairConfig{
		Count: pairs, ReadLength: readLen, InsertMean: 3 * readLen, InsertStdDev: readLen / 4,
		MappingRatio: 0.9, ErrorRate: 0.02, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := make([]dna.Seq, 0, 2*pairs)
	for _, p := range sim {
		reads = append(reads, p.R1, p.R2)
	}
	return reads
}

// sequentialMem maps reads one by one through the public per-read entry
// points — the reference schedule parallel batches must reproduce exactly.
func sequentialMem(t *testing.T, ix *Index, reads []dna.Seq, opts MemOptions) []MemResult {
	t.Helper()
	out := make([]MemResult, len(reads))
	if opts.Paired {
		i := 0
		for ; i+1 < len(reads); i += 2 {
			pr, err := ix.MapPairMem(reads[i], reads[i+1], opts)
			if err != nil {
				t.Fatal(err)
			}
			out[i], out[i+1] = pr.R1, pr.R2
		}
		if i < len(reads) {
			res, err := ix.MapReadMem(reads[i], opts)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = res
		}
		return out
	}
	for i, r := range reads {
		res, err := ix.MapReadMem(r, opts)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out
}

// TestMapReadsMemIntoValidation covers what the contract table does not: an
// empty batch is a batch, and options are validated before any read is mapped.
func TestMapReadsMemIntoValidation(t *testing.T) {
	ix, ref := buildMemIndex(t, 5000, 23)
	if _, err := ix.MapReadsMemInto(nil, nil, MemOptions{}, MapOptions{}); err != nil {
		t.Errorf("empty batch rejected: %v", err)
	}
	reads := []dna.Seq{ref[100:170].Clone()}
	if _, err := ix.MapReadsMemInto(make([]MemResult, 1), reads, MemOptions{MinSeedLen: -1}, MapOptions{}); err == nil {
		t.Error("negative MinSeedLen accepted")
	}
}

// TestMemZDropMatchesFullBand asserts the served pipeline's work-cutting
// heuristics (z-drop, adaptive band growth) are bit-transparent on the
// serving workload: every alignment field, CIGAR included, matches a run
// with both heuristics disabled. Only Stats.Cells (the work saved) may
// differ.
func TestMemZDropMatchesFullBand(t *testing.T) {
	ix, ref := buildMemIndex(t, 40000, 24)
	reads := memTestReads(t, ref, 150, 150)
	opts := MemOptions{Paired: true, MinInsert: 200, MaxInsert: 700}
	fast := make([]MemResult, len(reads))
	if _, err := ix.MapReadsMemInto(fast, reads, opts, MapOptions{}); err != nil {
		t.Fatal(err)
	}
	full := opts
	full.ZDrop = -1
	full.BandStart = -1
	exact := make([]MemResult, len(reads))
	if _, err := ix.MapReadsMemInto(exact, reads, full, MapOptions{}); err != nil {
		t.Fatal(err)
	}
	saved := 0
	for i := range exact {
		f, e := fast[i], exact[i]
		if f.Cells < e.Cells {
			saved++
		}
		// Cells is the work the heuristics save — everything else must match.
		f.Cells, e.Cells = 0, 0
		if f != e {
			t.Fatalf("read %d: heuristics changed the alignment:\n fast %+v\nexact %+v", i, fast[i], exact[i])
		}
	}
	if saved == 0 {
		t.Error("heuristics saved no DP cells on any read — they are not engaged")
	}
}

// TestMemBatchSteadyStateZeroAlloc is the mem allocation gate: once pools are
// warm, the batch path must not allocate per read.
func TestMemBatchSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	ix, ref := buildMemIndex(t, 30000, 25)
	reads := memTestReads(t, ref, 40, 100)
	opts := MemOptions{Paired: true, MinInsert: 100, MaxInsert: 600}
	dst := make([]MemResult, len(reads))
	// Warm: lazily-built bidirectional index, scratch pools, CIGAR interns.
	if _, err := ix.MapReadsMemInto(dst, reads, opts, MapOptions{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ix.MapReadsMemInto(dst, reads, opts, MapOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if perRead := allocs / float64(len(reads)); perRead > 0 {
		t.Errorf("steady-state batch path allocates %.3f allocs/read (%.0f per batch), want 0", perRead, allocs)
	}
}

func BenchmarkMapReadsMemInto(b *testing.B) {
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 30000, GC: 0.45, Seed: 26})
	if err != nil {
		b.Fatal(err)
	}
	ix, err := BuildIndex(ref, IndexConfig{})
	if err != nil {
		b.Fatal(err)
	}
	sim, err := readsim.SimulatePairs(ref, readsim.PairConfig{
		Count: 50, ReadLength: 150, InsertMean: 450, InsertStdDev: 35,
		MappingRatio: 0.9, ErrorRate: 0.02, Seed: 27,
	})
	if err != nil {
		b.Fatal(err)
	}
	reads := make([]dna.Seq, 0, 2*len(sim))
	for _, p := range sim {
		reads = append(reads, p.R1, p.R2)
	}
	opts := MemOptions{Paired: true, MinInsert: 200, MaxInsert: 700}
	dst := make([]MemResult, len(reads))
	if _, err := ix.MapReadsMemInto(dst, reads, opts, MapOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.MapReadsMemInto(dst, reads, opts, MapOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
