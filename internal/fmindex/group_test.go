package fmindex

import (
	"errors"
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
// every size. On a sampled array it also holds the searches that track
// their rows' positions while they rank: a 2-row interval that lasts more
// steps than the sample rate, a pattern consumed before every row has met
// a sample, and an interval that shrinks while it is tracked.
func TestSearchGroupMatchesOnePattern(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	text := buildText(rng, 5000)
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
	// Segments written locateMax times and once more — the most occurrences
	// a search locates, and one more — for the full and the sampled array,
	// each copy after a different symbol. The last pattern of the rarer
	// segments ends on 2 rows, so a sampled search of it is consumed before
	// both have met a sample, unless both are sampled.
	at := 100
	for _, copies := range []int{maxLocated, maxLocated + 1, trackedMax, trackedMax + 1} {
		seg := buildText(rng, 24)
		for c := range copies {
			text[at-1] = uint8(c % 4)
			copy(text[at:], seg)
			at += 70
		}
		patterns = append(patterns, seg, seg[5:], append([]uint8{1}, seg...))
	}
	consumed := patterns[len(patterns)-1]
	// A segment written twice: its 2-row interval lasts more steps than the
	// sample rate, and the pattern that adds a symbol neither copy follows
	// dies on the text once both rows are met.
	long := buildText(rng, 40)
	for c := range 2 {
		text[at-1] = uint8(c)
		copy(text[at:], long)
		at += 70
	}
	patterns = append(patterns, long, append([]uint8{2}, long...))
	// A segment written four times, two copies after the same 24 symbols, a
	// third after their last 3: the interval of those 24 symbols and the
	// segment shrinks from 4 rows to 3, then to 2, while it is tracked.
	seg, q := buildText(rng, 12), buildText(rng, 24)
	var starts []int
	for _, before := range [][]uint8{q, q, q[21:], nil} {
		copy(text[at-len(before):], before)
		copy(text[at:], seg)
		starts = append(starts, at)
		at += 70
	}
	text[starts[2]-4] = (q[20] + 1) % 4
	text[starts[3]-1] = (q[23] + 1) % 4
	shrinking := append(append([]uint8(nil), q...), seg...)
	patterns = append(patterns, shrinking)
	for _, kind := range indexKinds() {
		t.Run(kind.name, func(t *testing.T) {
			ix := kind.build(t, text)
			checkSearchGroup(t, ix, patterns) // no table: the plain search
			attachText(t, ix, text)
			if ix.sampled != nil {
				checkTracking(t, ix, long, consumed, shrinking)
			}
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

// intervalCounts returns how many rows the ranked search of pattern holds
// after each step, until it is consumed or the interval empties.
func intervalCounts(ix *Index, pattern []uint8) []int {
	r, counts := ix.All(), make([]int, 0, len(pattern))
	for i := len(pattern) - 1; i >= 0 && !r.Empty(); i-- {
		r = ix.Step(r, pattern[i])
		counts = append(counts, r.Count())
	}
	return counts
}

// checkTracking fails unless the patterns of sampled index ix are what
// TestSearchGroupMatchesOnePattern says they are: long keeps a 2-row
// interval for more steps than the sample rate, consumed reaches at most
// locateMax rows at its last step and some of them are not sampled, and
// shrinking's interval shrinks from at most locateMax rows to fewer, none
// but before its last step.
func checkTracking(t *testing.T, ix *Index, long, consumed, shrinking []uint8) {
	t.Helper()
	two := 0
	for _, c := range intervalCounts(ix, long) {
		if c == 2 {
			two++
		}
	}
	if two <= ix.sampled.rate {
		t.Fatalf("the segment written twice keeps 2 rows for %d steps, the sample rate is %d", two, ix.sampled.rate)
	}
	counts := intervalCounts(ix, consumed)
	r := ix.Count(consumed)
	unmet := 0
	for row := r.Start; row <= r.End; row++ {
		if !ix.sampled.marks.Bit(row) {
			unmet++
		}
	}
	if last := len(counts) - 1; len(counts) != len(consumed) || counts[last-1] <= ix.locateMax || counts[last] > ix.locateMax || unmet == 0 {
		t.Fatalf("the consumed pattern holds %v rows, its last %d unsampled; locateMax %d", counts, unmet, ix.locateMax)
	}
	counts = intervalCounts(ix, shrinking)
	for i := 1; i < len(counts)-1; i++ {
		if counts[i-1] <= ix.locateMax && 0 < counts[i] && counts[i] < counts[i-1] {
			return
		}
	}
	t.Fatalf("the shrinking pattern holds %v rows; locateMax %d", counts, ix.locateMax)
}

// TestSearchGroupRefusesCorruptSamples corrupts every value of a sampled
// array once past the text and once to 0, which carried one step left
// would be before it: a grouped search must fail with the locate walk's
// error, not panic reading the text.
func TestSearchGroupRefusesCorruptSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	text := buildText(rng, 2000)
	// Segments written twice and 5 times, their copies after different
	// symbols and 70 positions apart, not a multiple of the rate: a tracked
	// search meets some copies' samples a step before the others' and
	// carries them.
	var patterns [][]uint8
	at := 100
	for _, copies := range []int{2, 5} {
		seg := buildText(rng, 40)
		for c := range copies {
			text[at-1] = uint8(c % 4)
			copy(text[at:], seg)
			at += 70
		}
		patterns = append(patterns, seg, seg[3:])
	}
	for _, v := range []int32{int32(len(text) + 8), 0} {
		ix := buildWith(t, text, func(d []uint8) (OccProvider, error) { return NewWaveletOcc(d, 4, testParams) }, sampledOpts(4))
		attachText(t, ix, text)
		for i := range ix.sampled.values {
			ix.sampled.values[i] = v
		}
		var g Group
		ranges, steps := make([]Range, len(patterns)), make([]int, len(patterns))
		if err := ix.SearchGroup(&g, patterns, false, ranges, steps); !errors.Is(err, errOutside) {
			t.Errorf("every sample %d: SearchGroup returned %v, want %v", v, err, errOutside)
		}
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
