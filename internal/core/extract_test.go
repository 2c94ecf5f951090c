package core

import (
	"slices"
	"strings"
	"testing"

	"bwaver/internal/readsim"
	"bwaver/internal/rrr"
)

func TestExtractReferenceRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 100, 5000} {
		ref, err := readsim.Genome(readsim.GenomeConfig{Length: n, Seed: int64(n), RepeatFraction: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []IndexConfig{
			{},
			{RRR: rrr.Params{BlockSize: 7, SuperblockFactor: 3}},
			{Locate: LocateNone},
			{Locate: LocateSampled, SampleRate: 1},
			{Locate: LocateSampled, SampleRate: 3},
			{Locate: LocateSampled, SampleRate: 1 << 20},
		} {
			ix := mustBuild(t, ref, cfg)
			back, err := ix.ExtractReference()
			if err != nil {
				t.Fatalf("n=%d cfg=%+v: %v", n, cfg, err)
			}
			if !slices.Equal(back, ref) {
				t.Fatalf("n=%d cfg=%+v: extracted reference differs", n, cfg)
			}
			// EnsureMem's text: the build's packed text, and on an index read
			// from its file, which holds none, the extraction packed.
			from := []*Index{ix}
			if n >= 100 { // rrr refuses to read back the files of some references of a few bases
				from = append(from, roundTrip(t, ix))
			}
			for _, from := range from {
				if err := from.EnsureMem(); err != nil {
					t.Fatalf("n=%d cfg=%+v: %v", n, cfg, err)
				}
				if got := from.mem.Load().text.Unpack(); !slices.Equal(got, back) {
					t.Fatalf("n=%d cfg=%+v text held %v: reference differs from the extraction", n, cfg, from.fm.Text().Len() > 0)
				}
			}
		}
	}
}

func TestExtractAfterSerialization(t *testing.T) {
	ref := testGenome(t, 3000)
	ix := mustBuild(t, ref, IndexConfig{Locate: LocateNone})
	back := roundTrip(t, ix)
	got, err := back.ExtractReference()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, ref) {
		t.Error("extraction from deserialized index differs")
	}
}

// TestExtractBySAMatchesWalk: on a reference long enough to split the rows
// across workers, the segment walk gives the reference back in every locate
// mode — one LF step per row with the full suffix array, up to a sampling
// interval per sample, one walk over the whole text when count-only.
func TestExtractBySAMatchesWalk(t *testing.T) {
	ref := testGenome(t, 200000)
	for _, cfg := range []IndexConfig{{}, {Locate: LocateSampled, SampleRate: 8}, {Locate: LocateSampled}, {Locate: LocateNone}} {
		got, err := mustBuild(t, ref, cfg).ExtractReference()
		if err != nil {
			t.Fatalf("%v/%d: %v", cfg.Locate, cfg.SampleRate, err)
		}
		if !slices.Equal(got, ref) {
			t.Fatalf("%v/%d: extracted reference differs", cfg.Locate, cfg.SampleRate)
		}
	}
}

// TestExtractBySARejectsCorruptSA: a suffix array that is not a permutation
// of [0, n] is reported: a row claims a position outside the text or the
// sentinel's, or its segment lands on a row that does not hold the position
// below.
func TestExtractBySARejectsCorruptSA(t *testing.T) {
	ref := testGenome(t, 3000)
	for name, corrupt := range map[string]func(sa []int32, primary int){
		"duplicate":    func(sa []int32, primary int) { sa[(primary+1)%len(sa)] = sa[(primary+2)%len(sa)] },
		"out of range": func(sa []int32, primary int) { sa[(primary+1)%len(sa)] = int32(len(sa)) },
		"negative":     func(sa []int32, primary int) { sa[(primary+1)%len(sa)] = -1 },
		"second zero":  func(sa []int32, primary int) { sa[(primary+1)%len(sa)] = 0 },
	} {
		ix := mustBuild(t, ref, IndexConfig{})
		corrupt(ix.fm.SA(), ix.fm.Primary())
		if _, err := ix.ExtractReference(); err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Errorf("%s: err = %v, want a corruption error", name, err)
		}
	}
}
