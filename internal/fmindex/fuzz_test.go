package fmindex

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"bwaver/internal/bwt"
	"bwaver/internal/rrr"
	"bwaver/internal/suffixarray"
)

// FuzzSearchWithFtab asserts the prefix-table search is bit-identical to the
// plain backward search: for any text, table order, and pattern — including
// out-of-alphabet symbols and reads shorter than k — both must return the
// same Range. The table stores the exact death range of dead k-mers, so this
// holds with no fallback re-search on the hot path; equality here is the
// whole correctness contract of the optimisation. The pattern also goes
// through the group search beside its halves, its reversal, a slice of the
// text with and without a symbol outside the alphabet, an empty pattern and
// a duplicate of itself, in groups of every size, with the table and
// without, and with the packed text attached and without, on the full
// suffix array and on one sampled at rate 4: each must get the one-pattern
// search's range, in Canonical's form, and step count, and a search that
// finished on the text the positions LocateAppend gives its rows.
func FuzzSearchWithFtab(f *testing.F) {
	f.Add([]byte("ACGTACGGTACCTTAGGCAATCGA"), []byte("ACGT"), uint8(2))
	f.Add([]byte("AAAAAAAACCCCGGGG"), []byte("AAAC"), uint8(3))
	f.Add([]byte("ACGT"), []byte("NNACGT"), uint8(4))
	f.Add([]byte("TTTT"), []byte("T"), uint8(5))
	// Text ending ACT (symbols 0 1 3) at k = 3: the short suffixes T and CT
	// sort in the gaps below TAA and CTA, and the absent AG and AGA die at
	// bounds beside them.
	for _, pattern := range [][]byte{{0, 1, 3}, {0, 2}, {0, 2, 0}, {1, 3}, {3, 0, 0}} {
		f.Add([]byte{2, 1, 1, 3, 2, 2, 0, 1, 3, 0, 1, 3}, pattern, uint8(2))
	}
	f.Add([]byte{1, 0, 0, 2, 1, 0, 0}, []byte{1, 0, 0, 0}, uint8(3)) // tail CAA pads to CAAA
	// kRaw >= 6 shrinks the index's alphabet: keys holding a symbol the
	// index lacks die with Step's [1, 0].
	f.Add([]byte{2, 1, 0, 0, 1, 2, 2, 0, 1}, []byte{0, 1, 3, 0}, uint8(8))
	f.Add([]byte{1, 0, 1, 1, 0, 0, 1, 0}, []byte{1, 2, 0, 1}, uint8(14))
	f.Fuzz(func(t *testing.T, textRaw, patternRaw []byte, kRaw uint8) {
		if len(textRaw) == 0 || len(textRaw) > 1<<10 {
			return
		}
		sigma := 4 - int(kRaw)/6%3
		text := make([]uint8, len(textRaw))
		for i, b := range textRaw {
			text[i] = b % uint8(sigma)
		}
		// Patterns keep symbols up to 5 so values >= sigma exercise both the
		// table's miss path and Step's empty-range handling.
		pattern := make([]uint8, len(patternRaw))
		for i, b := range patternRaw {
			pattern[i] = b % 6
		}
		k := 1 + int(kRaw)%6
		sa, err := suffixarray.Build(text, sigma)
		if err != nil {
			t.Skip() // degenerate text the pipeline rejects
		}
		tr, err := bwt.Transform(text, sa)
		if err != nil {
			t.Skip()
		}
		occ, err := NewWaveletOcc(tr.Data, sigma, rrr.DefaultParams)
		if err != nil {
			t.Skip()
		}
		ix, err := New(tr, sigma, occ, Options{SA: sa})
		if err != nil {
			t.Skip()
		}
		built, err := ix.BuildFtab(k)
		if err != nil {
			t.Fatalf("BuildFtab(%d): %v", k, err)
		}
		// Search through the table as read back: loading must accept what
		// was built and derive the same bounds.
		var buf bytes.Buffer
		if _, err := built.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		ftab, err := ReadFtab(&buf, ix)
		if err != nil {
			t.Fatalf("k=%d: ReadFtab refuses the built table: %v", k, err)
		}
		ix.SetFtab(ftab)

		plain := ix.Count(pattern)
		got, _ := ix.SearchWithFtabSteps(pattern)
		if got != plain {
			t.Fatalf("k=%d pattern=%v: ftab search %+v != plain search %+v",
				k, pattern, got, plain)
		}

		o := int(kRaw) * 7 % len(text)
		slice := text[o:min(len(text), o+1+int(kRaw)%12)]
		reversed := make([]uint8, len(pattern))
		for i, c := range pattern {
			reversed[len(pattern)-1-i] = c
		}
		group := [][]uint8{
			pattern, pattern[:len(pattern)/2], slice, nil, reversed,
			append([]uint8{5}, slice...), append(append([]uint8(nil), slice...), 4),
			pattern[len(pattern)/2:], pattern,
		}
		checkSearchGroup(t, ix, group)
		attachText(t, ix, text)
		checkSearchGroup(t, ix, group)

		// The same searches where the suffix array is sampled at rate 4: a
		// search finishing on the text tracks its rows' positions while it
		// ranks.
		samples, err := NewSampledSA(sa, 4)
		if err != nil {
			t.Fatal(err)
		}
		sampled, err := New(tr, sigma, occ, Options{Sampled: samples})
		if err != nil {
			t.Fatal(err)
		}
		if ftab, err = sampled.BuildFtab(k); err != nil {
			t.Fatalf("BuildFtab(%d): %v", k, err)
		}
		sampled.SetFtab(ftab)
		checkSearchGroup(t, sampled, group)
		attachText(t, sampled, text)
		checkSearchGroup(t, sampled, group)
	})
}

// FuzzShortTable checks the SMEM search's prefix-table lookups against their
// definition on texts of up to 2 000 symbols over at most four, with a tail
// appended so that the text's short suffixes land inside other strings'
// gaps: every level's lookup must equal the ExtendLeft and the ExtendRight
// chain over the string and hold as many rows as the text has occurrences.
func FuzzShortTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 2, 3, 1, 0, 0, 3, 2, 1, 3, 3}, []byte{0, 0, 0}, uint8(3))
	f.Add([]byte{2, 2, 1, 0, 3, 3, 1, 2, 0, 2, 1, 1, 3, 0, 2, 3, 1, 0, 2, 2, 3}, []byte{1, 0}, uint8(3))
	f.Add([]byte{1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 0, 1, 1, 0}, []byte{1, 0, 0}, uint8(1))
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3}, []byte{3, 3}, uint8(3))
	f.Add([]byte{2, 0, 2, 1, 0, 0, 2, 2, 1, 1, 0, 2, 0, 0, 1, 2, 1}, []byte{2, 0, 0, 0}, uint8(2))
	f.Fuzz(func(t *testing.T, body, tail []byte, distinct uint8) {
		if n := len(body) + len(tail); n == 0 || n > 2000 {
			return
		}
		sigma := 1 + int(distinct)%4
		text := make([]uint8, 0, len(body)+len(tail))
		for _, part := range [][]byte{body, tail} {
			for _, b := range part {
				text = append(text, b%uint8(sigma))
			}
		}
		bi := buildBi(t, text)
		// occ[l][key]: occurrences of every string of l <= k symbols.
		occ := make([][]int, bi.k+1)
		for l := 1; l <= bi.k; l++ {
			occ[l] = make([]int, pow4(l))
			for i := 0; i+l <= len(text); i++ {
				key := 0
				for _, c := range text[i : i+l] {
					key = key<<2 | int(c)
				}
				occ[l][key]++
			}
		}
		p := make([]uint8, bi.k)
		for l := 1; l <= bi.k; l++ {
			for key := range pow4(l) {
				for i := range l {
					p[i] = uint8(key >> (2 * (l - 1 - i)) & 3)
				}
				left, right := bi.All(), bi.All()
				for i := range l {
					left = bi.ExtendLeft(left, p[l-1-i])
					right = bi.ExtendRight(right, p[i])
				}
				got := bi.lookup(l, uint32(key))
				if got != left || got != right || got.Count() != occ[l][key] {
					t.Fatalf("n=%d %v: table %+v, ExtendLeft chain %+v, ExtendRight chain %+v, %d occurrences",
						len(text), p[:l], got, left, right, occ[l][key])
				}
			}
		}
	})
}

// approxSeed is one FuzzCountApprox corpus entry.
type approxSeed struct {
	text, pattern []uint8
	k             int
}

// cutSeed builds a seed the way approx_test.go builds its cases: random text
// from a fixed source, the pattern cut from it at a position, substitutions
// planted at the given pattern offsets.
func cutSeed(source int64, n, at, length, k int, mutate ...int) approxSeed {
	text := buildText(rand.New(rand.NewSource(source)), n)
	pattern := append([]uint8(nil), text[at:at+length]...)
	for _, p := range mutate {
		pattern[p] = (pattern[p] + 1) % 4
	}
	return approxSeed{text, pattern, k}
}

// approxSeeds mirrors the cases of approx_test.go, within the fuzz target's
// bounds (text ≤ 2 kbp, pattern ≤ 24, k ≤ 2).
func approxSeeds() []approxSeed {
	return []approxSeed{
		// TestCountApproxMatchesNaive: a cut, one and two planted
		// substitutions, a pattern unrelated to the text.
		cutSeed(41, 2000, 120, 12, 0),
		cutSeed(41, 2000, 300, 16, 1, 5),
		cutSeed(41, 2000, 700, 22, 2, 3, 17),
		{buildText(rand.New(rand.NewSource(41)), 2000), buildText(rand.New(rand.NewSource(7)), 9), 2},
		// TestCountApproxZeroEqualsExact, ...StepsExceedExact, ...DisjointRanges.
		cutSeed(42, 1000, 200, 19, 0),
		cutSeed(43, 2000, 100, 24, 2),
		cutSeed(44, 2000, 50, 20, 2),
		// TestCountApproxValidation's four-symbol text, and a pattern no text
		// this short can hold.
		{[]uint8{0, 1, 2, 3}, []uint8{0, 1}, 1},
		{[]uint8{2, 2, 1}, []uint8{2, 2, 1, 0, 3}, 2},
		// A symbol outside the alphabet, a forced substitution: within the
		// budget, and last in a pattern searched at k = 0, where no branch
		// is.
		{[]uint8{0, 1, 2, 3}, []uint8{0, 0xff}, 1},
		{[]uint8{0, 1, 2, 3}, []uint8{1, 0xff}, 0},
	}
}

// FuzzCountApprox holds the branching search to an oracle that shares nothing
// with it: a Hamming-distance scan of the text. Per stratum, the located
// position set equals the scan's; the ranges of distinct matched strings are
// disjoint; and a search that stepped at all reports it. Patterns hold
// symbols outside the alphabet too, which both count as mismatches.
func FuzzCountApprox(f *testing.F) {
	for _, s := range approxSeeds() {
		f.Add(s.text, s.pattern, uint8(s.k))
	}
	f.Fuzz(func(t *testing.T, textRaw, patternRaw []byte, kRaw uint8) {
		if len(textRaw) == 0 || len(textRaw) > 2000 || len(patternRaw) == 0 || len(patternRaw) > 24 {
			return
		}
		text := make([]uint8, len(textRaw))
		for i, b := range textRaw {
			text[i] = b & 3
		}
		// A byte of 0xf0 or more is a symbol outside the alphabet, which the
		// scan below counts as a mismatch wherever it is.
		pattern := make([]uint8, len(patternRaw))
		for i, b := range patternRaw {
			if pattern[i] = b & 3; b >= 0xf0 {
				pattern[i] = 4
			}
		}
		k := int(kRaw) % 3
		ix := buildWith(t, text,
			func(d []uint8) (OccProvider, error) { return NewWaveletOcc(d, 4, testParams) },
			fullSAOpts)
		matches, steps, err := ix.CountApproxSteps(nil, pattern, k)
		if err != nil {
			t.Fatal(err)
		}
		if steps <= 0 && (k > 0 || pattern[len(pattern)-1] < 4) {
			t.Fatalf("%d steps for a %d-symbol pattern", steps, len(pattern))
		}

		// The oracle: every alignment's Hamming distance, binned by stratum.
		want := make([][]int32, k+1)
		for i := 0; i+len(pattern) <= len(text); i++ {
			mm := 0
			for j, s := range pattern {
				if text[i+j] != s {
					mm++
				}
			}
			if mm <= k {
				want[mm] = append(want[mm], int32(i))
			}
		}
		got := make([][]int32, k+1)
		sorted := append([]ApproxMatch(nil), matches...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Range.Start < sorted[j].Range.Start })
		for i, m := range sorted {
			if m.Range.Empty() || m.Mismatches < 0 || m.Mismatches > k {
				t.Fatalf("match %+v outside budget %d or empty", m, k)
			}
			if i > 0 && m.Range.Start <= sorted[i-1].Range.End {
				t.Fatalf("overlapping ranges %+v and %+v", sorted[i-1], m)
			}
			ps, err := ix.Locate(m.Range)
			if err != nil {
				t.Fatal(err)
			}
			got[m.Mismatches] = append(got[m.Mismatches], ps...)
		}
		for mm := range want {
			if !sortedEqual(got[mm], want[mm]) {
				t.Fatalf("k=%d stratum %d: located %v, Hamming scan %v (text %v, pattern %v)",
					k, mm, got[mm], want[mm], text, pattern)
			}
		}
	})
}
