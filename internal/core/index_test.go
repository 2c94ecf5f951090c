package core

import (
	"slices"
	"sort"
	"sync"
	"testing"

	"bwaver/internal/dna"
	"bwaver/internal/readsim"
	"bwaver/internal/rrr"
)

func testGenome(t *testing.T, n int) dna.Seq {
	t.Helper()
	g, err := readsim.Genome(readsim.GenomeConfig{Length: n, Seed: 17, RepeatFraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// mapLocated maps read in a one-read locating batch.
func mapLocated(t testing.TB, ix *Index, read dna.Seq) MapResult {
	t.Helper()
	res, _, err := ix.MapReads([]dna.Seq{read}, MapOptions{Locate: true})
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

// sameResult reports whether a, a read's result on ix, and b, the same
// read's on an index of the same text read back from a file — which holds
// no text, so its searches rank to the end — agree: b's ranges in a's form,
// the same steps and the same positions in the same order.
func sameResult(ix *Index, a, b MapResult) bool {
	fm := ix.FM()
	return fm.Canonical(b.Forward) == a.Forward && fm.Canonical(b.Reverse) == a.Reverse && a.Steps == b.Steps &&
		slices.Equal(a.ForwardPositions, b.ForwardPositions) && slices.Equal(a.ReversePositions, b.ReversePositions)
}

// rankedPositions locates read's two orientations through the rows of the
// ranked one-pattern search: the reference for positions a batch reads
// off the text. An empty read has none.
func rankedPositions(t testing.TB, ix *Index, read dna.Seq) (fw, rc []int32) {
	t.Helper()
	if len(read) == 0 {
		return nil, nil
	}
	var out [2][]int32
	for i, pattern := range [2][]uint8{patternOf(read), patternOf(read.ReverseComplement())} {
		r, _ := ix.fm.SearchWithFtabSteps(pattern)
		ps, err := ix.fm.Locate(r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ps
	}
	return out[0], out[1]
}

func mustBuild(t *testing.T, ref dna.Seq, cfg IndexConfig) *Index {
	t.Helper()
	ix, err := BuildIndex(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestBuildIndexValidation(t *testing.T) {
	if _, err := BuildIndex(nil, IndexConfig{}); err == nil {
		t.Error("accepted empty reference")
	}
	if _, err := BuildIndex(dna.MustParseSeq("ACGT"), IndexConfig{RRR: rrr.Params{BlockSize: 99, SuperblockFactor: 1}}); err == nil {
		t.Error("accepted invalid RRR params")
	}
	if _, err := BuildIndex(dna.MustParseSeq("ACGT"), IndexConfig{Locate: LocateMode(9)}); err == nil {
		t.Error("accepted unknown locate mode")
	}
}

func TestBuildStats(t *testing.T) {
	ref := testGenome(t, 20000)
	ix := mustBuild(t, ref, IndexConfig{})
	s := ix.Stats()
	if s.RefLength != 20000 || s.UncompressedBytes != 20000 {
		t.Errorf("stats lengths wrong: %+v", s)
	}
	if s.StructureBytes <= 0 || s.SharedBytes <= 0 {
		t.Errorf("stats sizes missing: %+v", s)
	}
	if s.BWTRuns <= 0 || s.BWTEntropy <= 0 || s.BWTEntropy > 2 {
		t.Errorf("BWT stats implausible: %+v", s)
	}
	if s.CompressionRatio() <= 0 {
		t.Error("compression ratio missing")
	}
	if ix.RefLength() != 20000 {
		t.Errorf("RefLength = %d", ix.RefLength())
	}
	if ix.SizeBytes() <= ix.StructureBytes() {
		t.Error("total size should exceed structure size (full SA attached)")
	}
}

func TestMapReadBothStrands(t *testing.T) {
	ref := dna.MustParseSeq("ACGTACGGTACCTTAGGCAATCGA")
	ix := mustBuild(t, ref, IndexConfig{RRR: rrr.Params{BlockSize: 7, SuperblockFactor: 2}})

	// A forward substring.
	res := ix.MapRead(dna.MustParseSeq("GGTACC"))
	if !res.Mapped() {
		t.Fatal("forward substring did not map")
	}
	// GGTACC is its own reverse complement, so both orientations hit.
	if res.Forward.Count() != 1 || res.Reverse.Count() != 1 {
		t.Errorf("palindrome counts: fw=%d rc=%d", res.Forward.Count(), res.Reverse.Count())
	}

	// A reverse-strand read: RC of a reference substring.
	sub := ref[5:15]
	res = ix.MapRead(sub.ReverseComplement())
	if res.Reverse.Empty() {
		t.Error("reverse-complement read did not map on reverse strand")
	}

	// A read that maps nowhere.
	res = ix.MapRead(dna.MustParseSeq("AAAAAAAAAAAAAAAAAAAAAA"))
	if res.Mapped() {
		t.Error("impossible read mapped")
	}
	if res.Steps <= 0 {
		t.Error("steps not recorded")
	}
}

func TestMapReadsAgainstSimulatedTruth(t *testing.T) {
	ref := testGenome(t, 30000)
	reads, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 400, Length: 60, MappingRatio: 0.5, RevCompFraction: 0.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []IndexConfig{
		{},
		{Locate: LocateSampled, SampleRate: 16},
		{RRR: rrr.Params{BlockSize: 9, SuperblockFactor: 5}},
	} {
		ix := mustBuild(t, ref, cfg)
		results, stats, err := ix.MapReads(readsim.Seqs(reads), MapOptions{Locate: true})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Reads != 400 {
			t.Fatalf("stats.Reads = %d", stats.Reads)
		}
		for i, r := range reads {
			res := results[i]
			if r.Origin >= 0 {
				if !res.Mapped() {
					t.Fatalf("cfg %+v: planted read %d did not map", cfg, i)
				}
				// The planted origin must be among the located positions of
				// the correct strand.
				positions := res.ForwardPositions
				if r.RevStrand {
					positions = res.ReversePositions
				}
				found := false
				for _, p := range positions {
					if int(p) == r.Origin {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("cfg %+v: read %d origin %d not among positions %v",
						cfg, i, r.Origin, positions)
				}
			} else if res.Mapped() {
				// A random 60-mer mapping is astronomically unlikely.
				t.Fatalf("cfg %+v: random read %d mapped", cfg, i)
			}
		}
		// 50% mapping ratio by construction.
		if got := float64(stats.MappedReads) / float64(stats.Reads); got < 0.45 || got > 0.55 {
			t.Errorf("cfg %+v: mapping ratio %v, want ~0.5", cfg, got)
		}
		if stats.TotalSteps <= 0 || stats.Elapsed <= 0 {
			t.Errorf("cfg %+v: stats not populated: %+v", cfg, stats)
		}
	}
}

func equalPositions(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]int32(nil), a...)
	bs := append([]int32(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func TestLocateNoneIndexCounts(t *testing.T) {
	ref := testGenome(t, 5000)
	ix := mustBuild(t, ref, IndexConfig{Locate: LocateNone})
	res := ix.MapRead(ref[100:140])
	if !res.Mapped() {
		t.Error("count-only index failed to count")
	}
	if _, _, err := ix.MapReads([]dna.Seq{ref[100:140]}, MapOptions{Locate: true}); err == nil {
		t.Error("locate on a count-only index should fail")
	}
}

// TestAllOccurrencesFound plants a pattern several times and checks that
// mapping reports every copy — the paper's "find all occurrences" claim.
func TestAllOccurrencesFound(t *testing.T) {
	base := testGenome(t, 8000)
	pattern := dna.MustParseSeq("ACGTTGCAACGTTGCAACGT")
	ref := base.Clone()
	plantAt := []int{100, 2500, 4000, 7000}
	for _, p := range plantAt {
		copy(ref[p:p+len(pattern)], pattern)
	}
	ix := mustBuild(t, ref, IndexConfig{})
	positions := mapLocated(t, ix, pattern).ForwardPositions
	found := map[int]bool{}
	for _, p := range positions {
		found[int(p)] = true
	}
	for _, p := range plantAt {
		if !found[p] {
			t.Errorf("planted occurrence at %d not reported (got %v)", p, positions)
		}
	}
}

func TestLocateModeString(t *testing.T) {
	if LocateFullSA.String() != "full-sa" || LocateSampled.String() != "sampled-sa" || LocateNone.String() != "none" {
		t.Error("LocateMode.String wrong")
	}
}

func TestMapReadsProgress(t *testing.T) {
	ref := testGenome(t, 10000)
	reads, _ := readsim.Simulate(ref, readsim.ReadsConfig{Count: 250, Length: 30, MappingRatio: 1, Seed: 20})
	ix := mustBuild(t, ref, IndexConfig{})
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var updates []int
		_, _, err := ix.MapReads(readsim.Seqs(reads), MapOptions{
			Workers:       workers,
			ProgressEvery: 50,
			Progress: func(done, total int) {
				mu.Lock()
				updates = append(updates, done)
				mu.Unlock()
				if total != 250 {
					t.Errorf("total = %d", total)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(updates) < 4 { // one per chunk that crosses a multiple of 50, + final
			t.Errorf("workers=%d: only %d progress updates: %v", workers, len(updates), updates)
		}
		if updates[len(updates)-1] != 250 {
			t.Errorf("workers=%d: final update %d, want 250", workers, updates[len(updates)-1])
		}
	}
}
