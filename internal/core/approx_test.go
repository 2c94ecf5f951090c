package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"bwaver/internal/dna"
	"bwaver/internal/fmindex"
	"bwaver/internal/readsim"
)

func TestMapReadApproxRescuesMutation(t *testing.T) {
	ref := testGenome(t, 20000)
	ix := mustBuild(t, ref, IndexConfig{})
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		pos := rng.Intn(len(ref) - 40)
		read := ref[pos : pos+40].Clone()
		p := rng.Intn(40)
		read[p] = dna.Base((int(read[p]) + 1 + rng.Intn(3)) % 4)

		exact := ix.MapRead(read)
		if exact.Mapped() {
			continue // rare repeat coincidence; skip
		}
		res, err := ix.MapReadApprox(read, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Mapped() {
			t.Fatalf("trial %d: mutated read not rescued at k=1", trial)
		}
		if res.BestMismatches() != 1 {
			t.Fatalf("trial %d: best stratum %d, want 1", trial, res.BestMismatches())
		}
		// The planted origin must be among the located forward positions.
		found := false
		for _, m := range res.Forward {
			ps, err := ix.FM().Locate(m.Range)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range ps {
				if int(q) == pos {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("trial %d: origin %d not located", trial, pos)
		}
	}
}

func TestMapReadApproxReverseStrand(t *testing.T) {
	ref := testGenome(t, 10000)
	ix := mustBuild(t, ref, IndexConfig{})
	read := ref[500:540].ReverseComplement()
	read[3] = read[3].Complement() // one mismatch
	res, err := ix.MapReadApprox(read, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reverse) == 0 {
		t.Error("reverse-strand approximate match missed")
	}
	if res.Steps <= len(read) {
		t.Errorf("steps %d implausibly low for branching search", res.Steps)
	}
}

func TestMapReadApproxBudgetValidation(t *testing.T) {
	ref := testGenome(t, 2000)
	ix := mustBuild(t, ref, IndexConfig{})
	if _, err := ix.MapReadApprox(ref[0:20], -1); err == nil {
		t.Error("accepted negative budget")
	}
	if _, err := ix.MapReadApprox(ref[0:20], 99); err == nil {
		t.Error("accepted huge budget")
	}
}

func TestApproxResultAccessorsEmpty(t *testing.T) {
	// An unmapped result: both exact ranges empty (a zero Range is row 0), no
	// strata.
	none := fmindex.Range{Start: 1, End: 0}
	r := ApproxResult{Exact: MapResult{Forward: none, Reverse: none}}
	if r.Mapped() || r.Occurrences() != 0 || r.BestMismatches() != -1 {
		t.Errorf("unmapped ApproxResult accessors wrong: %+v", r)
	}
}

// TestMapReadApproxExactFirst pins the workload's semantics: a read that
// occurs exactly answers with its exact hits and never enters the branching
// search, however many in-budget neighbours it has — the 7-vs-1 8-mer the
// two backends used to disagree on.
func TestMapReadApproxExactFirst(t *testing.T) {
	ref := testGenome(t, 20000)
	ix := mustBuild(t, ref, IndexConfig{})
	read := ref[1000:1008]
	exact := ix.MapRead(read)
	neighbours, _, err := ix.FM().CountApproxSteps(nil, patternOf(read), 1)
	if err != nil {
		t.Fatal(err)
	}
	if fmindex.TotalOccurrences(neighbours) <= exact.Forward.Count() {
		t.Fatalf("8-mer has no in-budget neighbours beyond its %d exact hits; pick another", exact.Forward.Count())
	}
	res, err := ix.MapReadApprox(read, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact.Forward != exact.Forward || res.Exact.Reverse != exact.Reverse || res.Exact.Steps != exact.Steps {
		t.Errorf("pass 1 = %+v, MapRead = %+v", res.Exact, exact)
	}
	if len(res.Forward) != 0 || len(res.Reverse) != 0 || res.Steps != 0 {
		t.Errorf("pass 2 ran for an exact hit: %+v", res)
	}
	if !res.Mapped() || res.BestMismatches() != 0 || res.Occurrences() != exact.Occurrences() {
		t.Errorf("accessors: mapped %t, best %d, occurrences %d; want true, 0, %d",
			res.Mapped(), res.BestMismatches(), res.Occurrences(), exact.Occurrences())
	}
}

// TestMapReadsApproxMatchesOnePattern holds the k-mismatch batch, whose
// pass 1 searches a chunk's exact patterns as one group, to a per-read
// reference built here from the one-pattern searches: exact hits and misses,
// rescues, reads shorter than the table's order, reads holding a symbol
// outside the alphabet and empty reads, over several chunks and an odd
// batch, at 1 and 2 workers, with the table on and off. Results and
// prefix-table counters must be equal.
func TestMapReadsApproxMatchesOnePattern(t *testing.T) {
	ref := testGenome(t, 20000)
	ix := mustBuild(t, ref, IndexConfig{FtabK: 8})
	sim, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 101, Length: 30, MappingRatio: 0.6, RevCompFraction: 0.5, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := readsim.Seqs(sim)
	for i := range reads {
		switch i % 6 {
		case 1:
			reads[i] = reads[i].Clone()
			reads[i][i%30] = (reads[i][i%30] + 1) % 4 // a rescue, or a miss
		case 2:
			reads[i] = reads[i][:1+i%9] // up to 9 bases, most below the table's order
		case 3:
			// A reverse-strand copy with an A written as 4: the forward
			// pattern holds a symbol outside the alphabet, and the reverse
			// complement still occurs exactly (4 complements to T, as A
			// does), so pass 2 never runs.
			at := 40 + 50*i
			read := ref[at : at+30].ReverseComplement()
			j := slices.Index(read, dna.A)
			if j < 0 {
				t.Fatalf("read %d holds no A", i)
			}
			read[j] = 4
			reads[i] = read
		case 4:
			reads[i] = dna.Seq{}
		}
	}
	none := fmindex.Range{Start: 1, End: 0}
	reference := func(read dna.Seq, k int, useFtab bool) (ApproxResult, error) {
		search := ix.fm.CountSteps
		if useFtab {
			search = ix.fm.SearchWithFtabSteps
		}
		fw, rc := patternOf(read), patternOf(read.ReverseComplement())
		fwRange, fwSteps := search(fw)
		rcRange, rcSteps := search(rc)
		res := ApproxResult{Exact: MapResult{Forward: ix.fm.Canonical(fwRange), Reverse: ix.fm.Canonical(rcRange), Steps: max(fwSteps, rcSteps)}}
		if len(read) == 0 {
			// An empty read maps nowhere and is not rescued.
			return ApproxResult{Exact: MapResult{Forward: none, Reverse: none}}, nil
		}
		if res.Exact.Mapped() {
			return res, nil
		}
		var err error
		if res.Forward, fwSteps, err = ix.fm.CountApproxSteps(nil, fw, k); err != nil {
			return res, err
		}
		if res.Reverse, rcSteps, err = ix.fm.CountApproxSteps(nil, rc, k); err != nil {
			return res, err
		}
		res.Steps = max(fwSteps, rcSteps)
		return res, nil
	}
	counted := func(before fmindex.FtabStats) fmindex.FtabStats {
		s := ix.FtabStats()
		return fmindex.FtabStats{Hits: s.Hits - before.Hits, Misses: s.Misses - before.Misses, Short: s.Short - before.Short}
	}
	rescued := 0
	for _, k := range []int{1, 2} {
		for _, useFtab := range []bool{true, false} {
			before := ix.FtabStats()
			want := make([]ApproxResult, len(reads))
			for i, read := range reads {
				if want[i], err = reference(read, k, useFtab); err != nil {
					t.Fatalf("reference read %d: %v", i, err)
				}
				if !want[i].Exact.Mapped() && want[i].Mapped() {
					rescued++
				}
			}
			perRead := counted(before)
			for _, workers := range []int{1, 2} {
				got := make([]ApproxResult, len(reads))
				before := ix.FtabStats()
				if err := ix.MapReadsApproxFtab(got, reads, k, MapOptions{Workers: workers}, useFtab); err != nil {
					t.Fatal(err)
				}
				if c := counted(before); c != perRead {
					t.Errorf("k=%d ftab=%v workers=%d: batch counted %+v in the table, the reference %+v", k, useFtab, workers, c, perRead)
				}
				for i := range reads {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("k=%d ftab=%v workers=%d read %d %v:\n got %+v\nwant %+v", k, useFtab, workers, i, reads[i], got[i], want[i])
					}
				}
			}
		}
	}
	if rescued == 0 {
		t.Error("no read was rescued by pass 2; the batch does not exercise it")
	}

	// A read with a symbol outside the alphabet that misses exactly reaches
	// pass 2, which counts the symbol as a substitution: a reference slice
	// with one base other than A written as 4 misses on both strands (4
	// complements to T) and maps at one mismatch, as the reference has it.
	at := 1000
	bad := ref[at : at+30].Clone()
	j := slices.IndexFunc(bad, func(b dna.Base) bool { return b != dna.A })
	bad[j] = 4
	want, err := reference(bad, 1, true)
	if err != nil || want.Exact.Mapped() || !want.Mapped() {
		t.Fatalf("reference: %+v, %v; want a pass-2 hit", want, err)
	}
	got := make([]ApproxResult, 3)
	if err := ix.MapReadsApproxFtab(got, []dna.Seq{reads[0], bad, reads[1]}, 1, MapOptions{}, true); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[1], want) {
		t.Errorf("read outside the alphabet:\n got %+v\nwant %+v", got[1], want)
	}
}

// TestMapReadsApproxLocatesExactHits holds a locating k-mismatch batch, on a
// built full and a built sampled-8 index (text attached), to a locating
// exact batch for its exact hits and to a count-only k-mismatch batch for
// its strata, at 1 and 2 workers; and a warm locating batch, mapped into the
// previous batch's results, to no more allocations than the same batch
// count-only.
func TestMapReadsApproxLocatesExactHits(t *testing.T) {
	ref := testGenome(t, 20000)
	sim, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 300, Length: 40, MappingRatio: 0.8, RevCompFraction: 0.5, Seed: 54,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := readsim.Seqs(sim)
	for i := 0; i < len(reads); i += 3 {
		reads[i] = reads[i].Clone()
		reads[i][i%40] = (reads[i][i%40] + 1) % 4 // a rescue, or a miss
	}
	for _, cfg := range []IndexConfig{
		{FtabK: 8},
		{FtabK: 8, Locate: LocateSampled, SampleRate: 8},
	} {
		ix := mustBuild(t, ref, cfg)
		if ix.FM().Text().Len() == 0 {
			t.Fatal("index holds no text for its searches to finish on")
		}
		name := cfg.Locate.String()
		counted := make([]ApproxResult, len(reads))
		if err := ix.MapReadsApproxFtab(counted, reads, 1, MapOptions{}, true); err != nil {
			t.Fatal(err)
		}
		exact := make([]MapResult, len(reads))
		if _, err := ix.MapReadsInto(exact, reads, MapOptions{Locate: true}); err != nil {
			t.Fatal(err)
		}
		located, rescued := 0, 0
		for _, workers := range []int{1, 2} {
			got := make([]ApproxResult, len(reads))
			if err := ix.MapReadsApproxFtab(got, reads, 1, MapOptions{Workers: workers, Locate: true}, true); err != nil {
				t.Fatal(err)
			}
			for i := range reads {
				want := counted[i]
				want.Exact = exact[i]
				if !reflect.DeepEqual(got[i], want) {
					t.Fatalf("%s workers=%d read %d:\n got %+v\nwant %+v", name, workers, i, got[i], want)
				}
				located += len(got[i].Exact.ForwardPositions) + len(got[i].Exact.ReversePositions)
				if !got[i].Exact.Mapped() && got[i].Mapped() {
					rescued++
				}
			}
		}
		if located == 0 || rescued == 0 {
			t.Fatalf("%s: %d positions located, %d reads rescued; the batch exercises neither", name, located, rescued)
		}
		if raceEnabled {
			continue // race-detector instrumentation allocates
		}
		perBatch := func(locate bool) float64 {
			dst := make([]ApproxResult, len(reads))
			run := func() {
				if err := ix.MapReadsApproxFtab(dst, reads, 1, MapOptions{Workers: 1, Locate: locate}, true); err != nil {
					t.Fatal(err)
				}
			}
			run()
			return testing.AllocsPerRun(5, run)
		}
		if count, locate := perBatch(false), perBatch(true); locate > count {
			t.Errorf("%s: a warm locating batch allocates %.0f times, the same batch count-only %.0f", name, locate, count)
		}
	}
}

// TestMapReadsApproxZeroAlloc holds a warm k-mismatch batch in which a
// third of the reads carry a substitution, so that pass 2 runs on them, to
// no allocation at all, count-only and locating, each batch into the
// previous one's results: the strata reuse the storage the last batch left
// them, as the located positions do. It read 79 allocations a batch while
// every search allocated its strata afresh.
func TestMapReadsApproxZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	ref := testGenome(t, 20000)
	sim, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 300, Length: 40, MappingRatio: 0.8, RevCompFraction: 0.5, Seed: 54,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := readsim.Seqs(sim)
	for i := 0; i < len(reads); i += 3 {
		reads[i] = reads[i].Clone()
		reads[i][i%40] = (reads[i][i%40] + 1) % 4 // a rescue, or a miss
	}
	ix := mustBuild(t, ref, IndexConfig{FtabK: 8})
	for _, locate := range []bool{false, true} {
		dst := make([]ApproxResult, len(reads))
		run := func() {
			if err := ix.MapReadsApproxFtab(dst, reads, 1, MapOptions{Workers: 1, Locate: locate}, true); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the scratch and size every result's strata and positions
		rescued := 0
		for _, r := range dst {
			if !r.Exact.Mapped() && r.Mapped() {
				rescued++
			}
		}
		if rescued == 0 {
			t.Fatal("no read was rescued by pass 2; the batch does not exercise it")
		}
		if avg := testing.AllocsPerRun(5, run); avg > 0 {
			t.Errorf("locate=%v: MapReadsApproxFtab allocates %.1f times per batch of %d reads (%d rescued), want 0", locate, avg, len(reads), rescued)
		}
	}
}

// TestEmptyReadMapsNowhere pins what an empty read maps to on the exact and
// k-mismatch paths: nothing, in 0 steps, with no positions and no pass 2 —
// not every row, which is what the backward search of an empty pattern
// matches.
func TestEmptyReadMapsNowhere(t *testing.T) {
	ref := testGenome(t, 5000)
	ix := mustBuild(t, ref, IndexConfig{FtabK: 4})
	none := fmindex.Range{Start: 1, End: 0}
	nothing := MapResult{Forward: none, Reverse: none}
	if got := ix.MapRead(dna.Seq{}); !reflect.DeepEqual(got, nothing) {
		t.Errorf("MapRead: %+v, want %+v", got, nothing)
	}
	reads := []dna.Seq{{}, ref[100:130], nil}
	for _, workers := range []int{1, 2} {
		dst := make([]MapResult, len(reads))
		stats, err := ix.MapReadsInto(dst, reads, MapOptions{Workers: workers, Locate: true})
		if err != nil {
			t.Fatal(err)
		}
		if stats.MappedReads != 1 || stats.Occurrences != dst[1].Occurrences() || stats.TotalSteps != dst[1].Steps {
			t.Errorf("workers=%d: stats %+v count the empty reads", workers, stats)
		}
		for _, i := range []int{0, 2} {
			if !reflect.DeepEqual(dst[i], nothing) {
				t.Errorf("workers=%d: MapReadsInto read %d: %+v, want %+v", workers, i, dst[i], nothing)
			}
		}
		if !dst[1].Mapped() || len(dst[1].ForwardPositions) == 0 {
			t.Errorf("workers=%d: the reference substring did not map: %+v", workers, dst[1])
		}
		for _, useFtab := range []bool{true, false} {
			approx := make([]ApproxResult, len(reads))
			if err := ix.MapReadsApproxFtab(approx, reads, 2, MapOptions{Workers: workers}, useFtab); err != nil {
				t.Fatal(err)
			}
			for _, i := range []int{0, 2} {
				if want := (ApproxResult{Exact: nothing}); !reflect.DeepEqual(approx[i], want) {
					t.Errorf("workers=%d ftab=%v: MapReadsApproxFtab read %d: %+v, want %+v", workers, useFtab, i, approx[i], want)
				}
				if approx[i].Mapped() || approx[i].BestMismatches() != -1 {
					t.Errorf("workers=%d ftab=%v: read %d maps", workers, useFtab, i)
				}
			}
		}
	}
}
