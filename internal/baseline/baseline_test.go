package baseline

import (
	"slices"
	"testing"

	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/readsim"
)

// sortedEqual reports whether a and b hold the same positions in any order.
func sortedEqual(a, b []int32) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

func testRef(t *testing.T, n int) dna.Seq {
	t.Helper()
	g, err := readsim.Genome(readsim.GenomeConfig{Length: n, Seed: 11, RepeatFraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewMapperValidation(t *testing.T) {
	if _, err := NewMapper(nil); err == nil {
		t.Error("accepted empty reference")
	}
	m, err := NewMapper(dna.MustParseSeq("ACGTACGT"))
	if err != nil {
		t.Fatal(err)
	}
	if m.BuildTime() <= 0 || m.IndexBytes() <= 0 {
		t.Error("build metadata missing")
	}
}

func TestMapReadsAgainstTruth(t *testing.T) {
	ref := testRef(t, 25000)
	reads, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 300, Length: 40, MappingRatio: 0.6, RevCompFraction: 0.5, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMapper(ref)
	if err != nil {
		t.Fatal(err)
	}
	results, stats, err := m.MapReads(readsim.Seqs(reads), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reads != 300 || stats.Threads != 1 {
		t.Errorf("stats = %+v", stats)
	}
	for i, r := range reads {
		res := results[i]
		if r.Origin >= 0 {
			if !res.Mapped() {
				t.Fatalf("planted read %d did not map", i)
			}
			positions := res.ForwardPositions
			if r.RevStrand {
				positions = res.ReversePositions
			}
			found := false
			for _, p := range positions {
				if int(p) == r.Origin {
					found = true
				}
			}
			if !found {
				t.Fatalf("read %d origin %d missing from %v", i, r.Origin, positions)
			}
		} else if res.Mapped() {
			t.Fatalf("random read %d mapped", i)
		}
	}
}

// TestAgreesWithBWaveR is the paper's "without any loss in accuracy" claim:
// the baseline and the succinct mapper must report identical matches — the
// same rows, in the form the succinct mapper reports them (a search that
// finished on its text holds rows [0, c−1]), and the same positions.
func TestAgreesWithBWaveR(t *testing.T) {
	ref := testRef(t, 15000)
	reads, _ := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 200, Length: 35, MappingRatio: 0.5, RevCompFraction: 0.5, Seed: 3,
	})
	m, err := NewMapper(ref)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildIndex(ref, core.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	seqs := readsim.Seqs(reads)
	blResults, _, err := m.MapReads(seqs, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	located, _, err := ix.MapReads(seqs, core.MapOptions{Locate: true})
	if err != nil {
		t.Fatal(err)
	}
	fm := ix.FM()
	for i, r := range reads {
		want, bl := ix.MapRead(r.Seq), blResults[i]
		if fm.Canonical(bl.Forward) != want.Forward || fm.Canonical(bl.Reverse) != want.Reverse ||
			!sortedEqual(bl.ForwardPositions, located[i].ForwardPositions) ||
			!sortedEqual(bl.ReversePositions, located[i].ReversePositions) {
			t.Fatalf("read %d: baseline %+v vs bwaver %+v", i, bl, located[i])
		}
	}
}

func TestThreadCountsAgree(t *testing.T) {
	ref := testRef(t, 20000)
	reads, _ := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 500, Length: 30, MappingRatio: 0.7, Seed: 4,
	})
	m, err := NewMapper(ref)
	if err != nil {
		t.Fatal(err)
	}
	serial, _, err := m.MapReads(readsim.Seqs(reads), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{2, 8, 16, -1} {
		par, stats, err := m.MapReads(readsim.Seqs(reads), threads, false)
		if err != nil {
			t.Fatal(err)
		}
		if threads > 0 && stats.Threads != threads {
			t.Errorf("stats.Threads = %d, want %d", stats.Threads, threads)
		}
		for i := range serial {
			if serial[i].Forward != par[i].Forward || serial[i].Reverse != par[i].Reverse {
				t.Fatalf("threads=%d: result %d differs", threads, i)
			}
		}
	}
}

func TestMoreThreadsThanReads(t *testing.T) {
	ref := testRef(t, 2000)
	reads, _ := readsim.Simulate(ref, readsim.ReadsConfig{Count: 3, Length: 20, MappingRatio: 1, Seed: 5})
	m, _ := NewMapper(ref)
	results, stats, err := m.MapReads(readsim.Seqs(reads), 16, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || stats.MappedReads != 3 {
		t.Errorf("results=%d mapped=%d", len(results), stats.MappedReads)
	}
}

func TestEmptyReadSet(t *testing.T) {
	m, _ := NewMapper(testRef(t, 1000))
	results, stats, err := m.MapReads(nil, 4, true)
	if err != nil || len(results) != 0 || stats.Reads != 0 {
		t.Errorf("empty read set: %v %+v %v", results, stats, err)
	}
}
