package core

import (
	"math/rand"
	"sync"
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

// TestMapReadsMemIntoMixedChunks holds the batch, whose chunks seed all
// their reads in one group, to mapping each read or pair alone, at 1 and 2
// workers, paired and single-end, over more than one chunk: an odd batch
// whose reads include an empty one, one with bases outside ACGT, unmappable
// ones, and a mate the seeds miss that rescue places.
func TestMapReadsMemIntoMixedChunks(t *testing.T) {
	ix, ref := buildMemIndex(t, 30000, 10)
	reads := memTestReads(t, ref, 24, 100)
	// The mate of ref[12000:12100], ~300 bases downstream on the reverse
	// strand, mutated every 12 bases: no SMEM of 31 bases, but rescue finds
	// it (TestMapPairMemRescue).
	mate := ref[12300:12400].Clone()
	for i := 10; i < len(mate); i += 12 {
		mate[i] = mate[i].Complement()
	}
	reads[6], reads[7] = ref[12000:12100].Clone(), mate.ReverseComplement()
	reads[10] = dna.Seq{}
	reads[13] = reads[13].Clone()
	for i := 5; i < len(reads[13]); i += 17 {
		reads[13][i] = 4
	}
	noise := rand.New(rand.NewSource(3))
	for _, i := range []int{20, 31, 32} {
		reads[i] = make(dna.Seq, 100)
		for j := range reads[i] {
			reads[i][j] = dna.Base(noise.Intn(4))
		}
	}
	reads = reads[:len(reads)-1]
	for _, paired := range []bool{true, false} {
		opts := MemOptions{Paired: paired, MinInsert: 100, MaxInsert: 600, MinSeedLen: 31}
		want := sequentialMem(t, ix, reads, opts)
		if paired && !want[7].Rescued {
			t.Fatalf("the mutated mate was not rescued: %+v", want[7])
		}
		unmapped := 0
		for _, r := range want {
			if !r.Mapped() {
				unmapped++
			}
		}
		if unmapped < 3 {
			t.Fatalf("paired %v: %d reads unmapped, want the noise reads among them", paired, unmapped)
		}
		for _, workers := range []int{1, 2} {
			got := make([]MemResult, len(reads))
			if _, err := ix.MapReadsMemInto(got, reads, opts, MapOptions{Workers: workers}); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("paired %v, %d workers, read %d:\n got %+v\nwant %+v", paired, workers, i, got[i], want[i])
				}
			}
		}
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

// BenchmarkMapReadsMemInto times the mem batch engine on paired 150 bp
// reads on one worker: over a 30 kbp reference whose index stays in cache,
// and over an E. coli-like 4.6 Mbp one (built once per test binary) whose
// tables, suffix array and text do not, where seeding waits on memory and a
// chunk's searches in lock step overlap those waits.
func BenchmarkMapReadsMemInto(b *testing.B) {
	for _, arm := range []struct {
		name  string
		build func() (mapInputs, error)
	}{{"30k", memBench30k}, {"EColiLike", memBenchEColi}} {
		b.Run(arm.name, func(b *testing.B) {
			in, err := arm.build()
			if err != nil {
				b.Fatal(err)
			}
			opts := MemOptions{Paired: true, MinInsert: 200, MaxInsert: 700}
			dst := make([]MemResult, len(in.reads))
			if _, err := in.ix.MapReadsMemInto(dst, in.reads, opts, MapOptions{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := in.ix.MapReadsMemInto(dst, in.reads, opts, MapOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*len(in.reads))/b.Elapsed().Seconds(), "reads/s")
		})
	}
}

// memBenchInputs builds an index over ref, its mem state included, and
// pairs paired 150 bp reads from it.
func memBenchInputs(ref dna.Seq, pairs int, seed int64) (mapInputs, error) {
	ix, err := BuildIndex(ref, IndexConfig{})
	if err != nil {
		return mapInputs{}, err
	}
	if err := ix.EnsureMem(); err != nil {
		return mapInputs{}, err
	}
	sim, err := readsim.SimulatePairs(ref, readsim.PairConfig{
		Count: pairs, ReadLength: 150, InsertMean: 450, InsertStdDev: 35,
		MappingRatio: 0.9, ErrorRate: 0.02, Seed: seed,
	})
	if err != nil {
		return mapInputs{}, err
	}
	reads := make([]dna.Seq, 0, 2*len(sim))
	for _, p := range sim {
		reads = append(reads, p.R1, p.R2)
	}
	return mapInputs{ix: ix, reads: reads}, nil
}

var memBench30k = sync.OnceValues(func() (mapInputs, error) {
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 30000, GC: 0.45, Seed: 26})
	if err != nil {
		return mapInputs{}, err
	}
	return memBenchInputs(ref, 50, 27)
})

var memBenchEColi = sync.OnceValues(func() (mapInputs, error) {
	ref, err := readsim.EColiLike(28, 1)
	if err != nil {
		return mapInputs{}, err
	}
	return memBenchInputs(ref, 256, 29)
})
