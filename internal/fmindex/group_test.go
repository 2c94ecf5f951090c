package fmindex

import (
	"math/rand"
	"testing"
)

// ftabStats returns the counters of ix's table, zero without one.
func ftabStats(ix *Index) FtabStats {
	if f := ix.Ftab(); f != nil {
		return f.Stats()
	}
	return FtabStats{}
}

// since returns the lookups counted between two snapshots.
func (s FtabStats) since(before FtabStats) FtabStats {
	return FtabStats{Hits: s.Hits - before.Hits, Misses: s.Misses - before.Misses, Short: s.Short - before.Short}
}

// checkSearchGroup runs patterns through SearchGroup in groups of every size
// from 1 to len(patterns), with the table and without, and fails unless
// every pattern's range and step count equal the one-pattern search's —
// SearchWithFtabSteps with the table, CountSteps without — and the table's
// counters grow by what the one-pattern searches add to them.
func checkSearchGroup(t *testing.T, ix *Index, patterns [][]uint8) {
	t.Helper()
	var g Group
	ranges := make([]Range, len(patterns))
	steps := make([]int, len(patterns))
	for _, useFtab := range []bool{true, false} {
		for size := 1; size <= len(patterns); size++ {
			before := ftabStats(ix)
			for lo := 0; lo < len(patterns); lo += size {
				hi := min(lo+size, len(patterns))
				ix.SearchGroup(&g, patterns[lo:hi], useFtab, ranges[lo:hi], steps[lo:hi])
			}
			grouped := ftabStats(ix)
			for p, pattern := range patterns {
				want, wantSteps := ix.CountSteps(pattern)
				if useFtab {
					want, wantSteps = ix.SearchWithFtabSteps(pattern)
				}
				if ranges[p] != want || steps[p] != wantSteps {
					t.Fatalf("ftab=%v group size %d, pattern %d %v: group search %+v in %d steps, one-pattern %+v in %d",
						useFtab, size, p, pattern, ranges[p], steps[p], want, wantSteps)
				}
			}
			if got, want := grouped.since(before), ftabStats(ix).since(grouped); got != want {
				t.Fatalf("ftab=%v group size %d: group search counted %+v, one-pattern searches %+v", useFtab, size, got, want)
			}
		}
	}
}

// TestSearchGroupMatchesOnePattern runs a batch that mixes text slices
// shorter and longer than the table's order, absent patterns, symbols
// outside the alphabet in the table's window and before it, empty and
// duplicate patterns, through SearchGroup on every provider, in groups of
// every size.
func TestSearchGroupMatchesOnePattern(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	text := buildText(rng, 3000)
	patterns := [][]uint8{nil}
	for range 40 {
		l := 1 + rng.Intn(30)
		o := rng.Intn(len(text) - l)
		p := append([]uint8(nil), text[o:o+l]...)
		switch rng.Intn(4) {
		case 0:
			p[rng.Intn(l)] = uint8(4 + rng.Intn(2)) // a symbol the index lacks
		case 1:
			p = buildText(rng, l) // most likely absent
		}
		patterns = append(patterns, p)
	}
	patterns = append(patterns, patterns[3], patterns[7], patterns[3])
	for _, kind := range indexKinds() {
		t.Run(kind.name, func(t *testing.T) {
			ix := kind.build(t, text)
			checkSearchGroup(t, ix, patterns) // no table: the plain search
			ftab, err := ix.BuildFtab(5)
			if err != nil {
				t.Fatal(err)
			}
			ix.SetFtab(ftab)
			checkSearchGroup(t, ix, patterns)
		})
	}
}

// TestSearchGroupFtabStats pins the table's counters after grouped batches
// to the one-pattern path's: hits, misses and short patterns are each
// counted once per pattern, whatever the group size.
func TestSearchGroupFtabStats(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	text := buildText(rng, 2000)
	ix := buildWith(t, text, func(d []uint8) (OccProvider, error) { return NewWaveletOcc(d, 4, testParams) }, fullSAOpts)
	ftab, err := ix.BuildFtab(4)
	if err != nil {
		t.Fatal(err)
	}
	ix.SetFtab(ftab)
	// 10 short, 20 with a symbol outside the alphabet in their last 4, 30
	// read from the table.
	var patterns [][]uint8
	for i := range 60 {
		p := buildText(rng, 8)
		switch {
		case i < 10:
			p = p[:3]
		case i < 30:
			p[4+rng.Intn(4)] = 4
		}
		patterns = append(patterns, p)
	}
	var g Group
	ranges := make([]Range, len(patterns))
	steps := make([]int, len(patterns))
	for _, size := range []int{1, 7, 64} {
		before := ftab.Stats()
		for lo := 0; lo < len(patterns); lo += size {
			hi := min(lo+size, len(patterns))
			ix.SearchGroup(&g, patterns[lo:hi], true, ranges[lo:hi], steps[lo:hi])
		}
		if got, want := ftab.Stats().since(before), (FtabStats{Hits: 30, Misses: 20, Short: 10}); got != want {
			t.Errorf("groups of %d counted %+v, want %+v", size, got, want)
		}
		before = ftab.Stats()
		ix.SearchGroup(&g, patterns, false, ranges, steps)
		if got := ftab.Stats(); got != before {
			t.Errorf("a search without the table counted %+v", got.since(before))
		}
	}
}
