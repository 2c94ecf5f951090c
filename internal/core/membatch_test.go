package core

import (
	"math/rand"
	"reflect"
	"runtime"
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

// sequentialMem maps reads one by one, and pairs pair by pair, each as a
// batch of its own — the reference schedule parallel batches must
// reproduce exactly.
func sequentialMem(t *testing.T, ix *Index, reads []dna.Seq, opts MemOptions) []MemResult {
	t.Helper()
	out := make([]MemResult, len(reads))
	if opts.Paired {
		i := 0
		for ; i+1 < len(reads); i += 2 {
			pr, err := mapPairMem(ix, reads[i], reads[i+1], opts)
			if err != nil {
				t.Fatal(err)
			}
			out[i], out[i+1] = pr.R1, pr.R2
		}
		if i < len(reads) {
			res, err := mapReadMem(ix, reads[i], opts)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = res
		}
		return out
	}
	for i, r := range reads {
		res, err := mapReadMem(ix, r, opts)
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
	exact := make([]MemResult, len(reads))
	if _, err := ix.mapMemInto(exact, reads, opts, MapOptions{}, true); err != nil {
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
// warm, the batch path must not allocate per read — seeding, the text
// windows extension, rescue and the NM count decode, CIGARs — whichever way
// the mem state came to be: on a built index, on one over a rate-8 sampled
// suffix array, and on one read from a file, whose mem state holds its own
// packed text.
func TestMemBatchSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	ix, ref := buildMemIndex(t, 30000, 25)
	reads := memTestReads(t, ref, 40, 100)
	// A mate no seed places, mutated every 12 bases, which rescue decodes
	// its window for (TestMapReadsMemIntoMixedChunks).
	mate := ref[12300:12400].Clone()
	for i := 10; i < len(mate); i += 12 {
		mate[i] = mate[i].Complement()
	}
	reads[6], reads[7] = ref[12000:12100].Clone(), mate.ReverseComplement()
	opts := MemOptions{Paired: true, MinInsert: 100, MaxInsert: 600}
	for _, tc := range []struct {
		name string
		ix   *Index
	}{
		{"built", ix},
		{"sampled-8", mustBuild(t, ref, IndexConfig{Locate: LocateSampled, SampleRate: 8})},
		{"loaded", roundTrip(t, ix)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst := make([]MemResult, len(reads))
			// Warm: lazily-built bidirectional index, scratch pools, CIGAR interns.
			if _, err := tc.ix.MapReadsMemInto(dst, reads, opts, MapOptions{}); err != nil {
				t.Fatal(err)
			}
			if !dst[7].Rescued {
				t.Fatalf("the mutated mate was not rescued: %+v", dst[7])
			}
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := tc.ix.MapReadsMemInto(dst, reads, opts, MapOptions{}); err != nil {
					t.Fatal(err)
				}
			})
			if perRead := allocs / float64(len(reads)); perRead > 0 {
				t.Errorf("steady-state batch path allocates %.3f allocs/read (%.0f per batch), want 0", perRead, allocs)
			}
		})
	}
}

// TestMemBatchScratchSurvivesCollection is the steady-state gate with two
// collections before every batch: the workers' scratch, kept between
// batches, must outlive them, so a warm batch still allocates nothing.
func TestMemBatchScratchSurvivesCollection(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	ix, ref := buildMemIndex(t, 30000, 25)
	reads := memTestReads(t, ref, 40, 100)
	opts := MemOptions{Paired: true, MinInsert: 100, MaxInsert: 600}
	dst := make([]MemResult, len(reads))
	run := func() {
		if _, err := ix.MapReadsMemInto(dst, reads, opts, MapOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(5, func() {
		runtime.GC()
		runtime.GC()
		run()
	})
	if allocs > 0 {
		t.Errorf("a warm batch after two collections allocates %.0f times, want 0", allocs)
	}
}

// TestEnsureMemBesideExactSearch builds the mem state of an index read from
// a file, which holds no text, while exact batches search it: EnsureMem
// packs the reference into the mem state only, so the exact index is never
// written — under -race, a write would be a reported race — and its batches
// map as before, ranking to the end.
func TestEnsureMemBesideExactSearch(t *testing.T) {
	ix, ref := buildMemIndex(t, 30000, 26)
	ix = roundTrip(t, ix)
	reads := memTestReads(t, ref, 100, 60)
	opts := MapOptions{Locate: true, Workers: 2}
	want := make([]MapResult, len(reads))
	if _, err := ix.MapReadsInto(want, reads, opts); err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() { done <- ix.EnsureMem() }()
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		got := make([]MapResult, len(reads))
		if _, err := ix.MapReadsInto(got, reads, opts); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("an exact batch beside EnsureMem maps differently")
		}
	}
	if n := ix.fm.Text().Len(); n != 0 {
		t.Errorf("EnsureMem attached a text of %d bases to the exact index", n)
	}
}

// BenchmarkMapReadsMemInto times the mem batch engine on paired 150 bp
// reads on one worker: over a 30 kbp reference whose index stays in cache,
// and over an E. coli-like 4.6 Mbp one (built once per test binary) whose
// tables, suffix array and text do not, where seeding waits on memory and a
// chunk's searches in lock step overlap those waits. EColi/full and
// EColi/sampled-8 are the served shape: 8 192 reads on the 4.6 Mbp
// reference with the k = 10 table, on the full and on a rate-8 sampled
// suffix array.
func BenchmarkMapReadsMemInto(b *testing.B) {
	served := func(sampled bool) func() (mapInputs, error) {
		return func() (mapInputs, error) {
			in, err := memBenchServed()
			if sampled {
				return mapInputs{ix: in.sampled, reads: in.reads}, err
			}
			return mapInputs{ix: in.full, reads: in.reads}, err
		}
	}
	for _, arm := range []struct {
		name  string
		build func() (mapInputs, error)
	}{{"30k", memBench30k}, {"EColiLike", memBenchEColi}, {"EColi/full", served(false)}, {"EColi/sampled-8", served(true)}} {
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
	reads, err := memBenchPairs(ref, pairs, seed)
	return mapInputs{ix: ix, reads: reads}, err
}

// memBenchPairs simulates pairs interleaved paired 150 bp reads on ref.
func memBenchPairs(ref dna.Seq, pairs int, seed int64) ([]dna.Seq, error) {
	sim, err := readsim.SimulatePairs(ref, readsim.PairConfig{
		Count: pairs, ReadLength: 150, InsertMean: 450, InsertStdDev: 35,
		MappingRatio: 0.9, ErrorRate: 0.02, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	reads := make([]dna.Seq, 0, 2*len(sim))
	for _, p := range sim {
		reads = append(reads, p.R1, p.R2)
	}
	return reads, nil
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

// memBenchServed is BenchmarkMapReadsMemInto's served shape, built once per
// test binary: locateBenchEColi's two indexes with their mem state, and
// 4 096 pairs of 150 bp reads on their reference.
var memBenchServed = sync.OnceValues(func() (in locateInputs, err error) {
	if in, err = locateBenchEColi(); err != nil {
		return in, err
	}
	for _, ix := range []*Index{in.full, in.sampled} {
		if err = ix.EnsureMem(); err != nil {
			return in, err
		}
	}
	ref, err := in.full.ExtractReference()
	if err != nil {
		return in, err
	}
	in.reads, err = memBenchPairs(ref, 4096, 31)
	return in, err
})
