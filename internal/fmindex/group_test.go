package fmindex

import (
	"math/rand"
	"slices"
	"testing"

	"bwaver/internal/dna"
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
// SearchWithFtabSteps with the table, CountSteps without — in Canonical's
// form, a search that finished on the text located what LocateAppend
// locates of the one-pattern range, in its order — read through
// LocateGroupAppend, LocateAppend refusing its range — and the table's
// counters grow by what the one-pattern searches add to them.
func checkSearchGroup(t *testing.T, ix *Index, patterns [][]uint8) {
	t.Helper()
	var g Group
	ranges := make([]Range, len(patterns))
	steps := make([]int, len(patterns))
	located := make([][]int32, len(patterns))
	for _, useFtab := range []bool{true, false} {
		for size := 1; size <= len(patterns); size++ {
			before := ftabStats(ix)
			for lo := 0; lo < len(patterns); lo += size {
				hi := min(lo+size, len(patterns))
				if err := ix.SearchGroup(&g, patterns[lo:hi], useFtab, ranges[lo:hi], steps[lo:hi]); err != nil {
					t.Fatal(err)
				}
				for p := lo; p < hi; p++ {
					if !ix.OnText(ranges[p]) {
						continue
					}
					var err error
					if located[p], err = ix.LocateGroupAppend(located[p][:0], &g, p-lo, ranges[p]); err != nil {
						t.Fatal(err)
					}
					if _, err := ix.LocateAppend(nil, ranges[p]); err == nil {
						t.Fatalf("LocateAppend located %v, a range that finished on the text, as rows", ranges[p])
					}
				}
			}
			grouped := ftabStats(ix)
			for p, pattern := range patterns {
				want, wantSteps := ix.CountSteps(pattern)
				if useFtab {
					want, wantSteps = ix.SearchWithFtabSteps(pattern)
				}
				if ranges[p] != ix.Canonical(want) || steps[p] != wantSteps {
					t.Fatalf("ftab=%v group size %d, pattern %d %v: group search %+v in %d steps, one-pattern %+v in %d",
						useFtab, size, p, pattern, ranges[p], steps[p], want, wantSteps)
				}
				if !ix.OnText(ranges[p]) {
					continue
				}
				wantPos, err := ix.LocateAppend(nil, want)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(located[p], wantPos) {
					t.Fatalf("ftab=%v group size %d, pattern %d %v: located %v on the text, the one-pattern rows %v",
						useFtab, size, p, pattern, located[p], wantPos)
				}
			}
			if got, want := grouped.since(before), ftabStats(ix).since(grouped); got != want {
				t.Fatalf("ftab=%v group size %d: group search counted %+v, one-pattern searches %+v", useFtab, size, got, want)
			}
		}
	}
}

// attachText packs text, symbols below 4, and attaches it to ix.
func attachText(t *testing.T, ix *Index, text []uint8) {
	t.Helper()
	seq := make(dna.Seq, len(text))
	for i, c := range text {
		seq[i] = dna.Base(c)
	}
	if err := ix.SetText(dna.Pack(seq)); err != nil {
		t.Fatal(err)
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
	// Segments written 16 and 17 times — the most occurrences a search
	// locates, and one more — each copy after a different symbol.
	for i, copies := range []int{maxLocated, maxLocated + 1} {
		seg := buildText(rng, 24)
		for c := range copies {
			at := 100 + (i*maxLocated+c)*60
			text[at-1] = uint8(c % 4)
			copy(text[at:], seg)
		}
		patterns = append(patterns, seg, seg[5:], append([]uint8{1}, seg...))
	}
	for _, kind := range indexKinds() {
		t.Run(kind.name, func(t *testing.T) {
			ix := kind.build(t, text)
			checkSearchGroup(t, ix, patterns) // no table: the plain search
			attachText(t, ix, text)
			checkSearchGroup(t, ix, patterns) // finishing on the text
			ftab, err := ix.BuildFtab(5)
			if err != nil {
				t.Fatal(err)
			}
			ix.SetFtab(ftab)
			checkSearchGroup(t, ix, patterns)
			if err := ix.SetText(dna.PackedSeq{}); err != nil {
				t.Fatal(err)
			}
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

// TestGroupServesBothSearches runs one Group through an SMEM group, then an
// exact group with the table and without, then an SMEM group again, at
// growing sizes: every result must equal that of a fresh scratch, and once
// the scratch is warm the three searches allocate nothing.
func TestGroupServesBothSearches(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	text := buildText(rng, 4000)
	bi := buildBi(t, text)
	ix := buildWith(t, text, func(d []uint8) (OccProvider, error) { return NewWaveletOcc(d, 4, testParams) }, fullSAOpts)
	ftab, err := ix.BuildFtab(5)
	if err != nil {
		t.Fatal(err)
	}
	ix.SetFtab(ftab)
	attachText(t, ix, text)
	patterns := [][]uint8{nil}
	for range 47 {
		l := 1 + rng.Intn(60)
		o := rng.Intn(len(text) - l)
		p := append([]uint8(nil), text[o:o+l]...)
		switch rng.Intn(4) {
		case 0:
			p[rng.Intn(l)] = 4 // a symbol the index lacks
		case 1:
			p[rng.Intn(l)] ^= 1 // a substitution
		}
		patterns = append(patterns, p)
	}
	const minLen = 8
	var shared Group
	ranges, steps := make([]Range, len(patterns)), make([]int, len(patterns))
	for _, n := range []int{1, 5, 16, len(patterns)} {
		pats := patterns[:n]
		var fresh Group
		if err := bi.SMEMsGroup(&fresh, pats, minLen); err != nil {
			t.Fatal(err)
		}
		smems := func(stage string) {
			t.Helper()
			if err := bi.SMEMsGroup(&shared, pats, minLen); err != nil {
				t.Fatal(err)
			}
			for p := range pats {
				got, gotSteps, gotErr := shared.Result(p)
				want, wantSteps, wantErr := fresh.Result(p)
				if !slices.Equal(got, want) || gotSteps != wantSteps || gotErr != wantErr {
					t.Fatalf("%d patterns, %s SMEM group, pattern %d: %v in %d steps (%v), fresh scratch %v in %d (%v)",
						n, stage, p, got, gotSteps, gotErr, want, wantSteps, wantErr)
				}
			}
		}
		smems("first")
		for _, useFtab := range []bool{true, false} {
			var freshExact Group
			wantRanges, wantSteps := make([]Range, n), make([]int, n)
			ix.SearchGroup(&freshExact, pats, useFtab, wantRanges, wantSteps)
			ix.SearchGroup(&shared, pats, useFtab, ranges[:n], steps[:n])
			if !slices.Equal(ranges[:n], wantRanges) || !slices.Equal(steps[:n], wantSteps) {
				t.Fatalf("%d patterns, ftab=%v: exact group %v in %v steps, fresh scratch %v in %v",
					n, useFtab, ranges[:n], steps[:n], wantRanges, wantSteps)
			}
		}
		smems("second")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := bi.SMEMsGroup(&shared, patterns, minLen); err != nil {
			t.Fatal(err)
		}
		ix.SearchGroup(&shared, patterns, true, ranges, steps)
		if err := bi.SMEMsGroup(&shared, patterns, minLen); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a warm scratch allocated %v times a round", allocs)
	}
}
