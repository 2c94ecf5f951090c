package fmindex

import (
	"math/rand"
	"testing"

	"bwaver/internal/bitvec"
	"bwaver/internal/bwt"
	"bwaver/internal/suffixarray"
)

// TestNewSampledSA: the marked rows are exactly those whose position is a
// multiple of the rate, their values are the full suffix array's in row
// order, and a build allocates a fixed handful of times at any length — the
// values sized once, the marks appended a word at a time.
func TestNewSampledSA(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sa []int32
	for _, n := range []int{1, 63, 64, 1000, 1 << 16} {
		var err error
		if sa, err = suffixarray.Build(buildText(rng, n), 4); err != nil {
			t.Fatal(err)
		}
		for _, rate := range []int{1, 3, 8, 64, 1 << 20} {
			s, err := NewSampledSA(sa, rate)
			if err != nil {
				t.Fatalf("n=%d rate=%d: %v", n, rate, err)
			}
			if s.marks.Len() != len(sa) || len(s.values) != n/rate+1 {
				t.Fatalf("n=%d rate=%d: %d marks and %d values, want %d and %d",
					n, rate, s.marks.Len(), len(s.values), len(sa), n/rate+1)
			}
			k := 0
			for row, pos := range sa {
				marked := s.marks.Bit(row)
				if marked != (int(pos)%rate == 0) {
					t.Fatalf("n=%d rate=%d: row %d (position %d) marked %v", n, rate, row, pos, marked)
				}
				if marked {
					if s.values[k] != pos {
						t.Fatalf("n=%d rate=%d: sample %d = %d, the suffix array says %d", n, rate, k, s.values[k], pos)
					}
					k++
				}
			}
		}
	}
	// sa is the 64 k-symbol array here: 8 193 samples at rate 8, which a
	// slice grown by append reaches through about twenty allocations.
	if allocs := testing.AllocsPerRun(5, func() { NewSampledSA(sa, 8) }); allocs > 8 {
		t.Errorf("NewSampledSA allocated %.0f times, want at most 8", allocs)
	}
	if _, err := NewSampledSA([]int32{0, 0, 0, 0, 0}, 2); err == nil {
		t.Error("accepted an array holding more multiples of the rate than a suffix array can")
	}
}

// TestSampledMarked holds marked, the marks of up to 32 rows in a word, to
// the marks read one bit at a time, over every start row and count, across
// word boundaries and up to the last row.
func TestSampledMarked(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sa, err := suffixarray.Build(buildText(rng, 300), 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampledSA(sa, 3)
	if err != nil {
		t.Fatal(err)
	}
	for c := 1; c <= 32; c++ {
		for row := 0; row+c <= len(sa); row++ {
			got := s.marked(row, c)
			for i := range c {
				if got>>i&1 == 1 != s.marks.Bit(row+i) {
					t.Fatalf("marked(%d, %d) = %b: bit %d disagrees with row %d's mark", row, c, got, i, row+i)
				}
			}
			if got>>c != 0 {
				t.Fatalf("marked(%d, %d) = %b: bits past the count", row, c, got)
			}
		}
	}
}

// TestNewFromPartsRejectsMalformedLocate: suffix-array values outside the
// text, and a sampled array that does not fit it — too few marks (the first
// locate used to panic reading past them), a value off the rate or outside
// [0, n], a value count other than ⌊n/rate⌋+1 — are refused up front.
func TestNewFromPartsRejectsMalformedLocate(t *testing.T) {
	text := buildText(rand.New(rand.NewSource(12)), 100)
	sa, err := suffixarray.Build(text, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bwt.Transform(text, sa)
	if err != nil {
		t.Fatal(err)
	}
	occ, err := NewWaveletOcc(b.Data, 4, testParams)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := b.SymbolCounts(4)
	if err != nil {
		t.Fatal(err)
	}
	good, err := NewSampledSA(sa, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFromParts(occ, 4, b.Primary, counts, Options{Sampled: good}); err != nil {
		t.Fatalf("well-formed sampled SA refused: %v", err)
	}
	withValue := func(i int, v int32) []int32 {
		values := append([]int32(nil), good.values...)
		values[i] = v
		return values
	}
	for name, s := range map[string]*SampledSA{
		"five marks":      {rate: 8, marks: bitvec.FromBools(make([]bool, 5)), values: good.values},
		"value off rate":  {rate: 8, marks: good.marks, values: withValue(1, 3)},
		"value past n":    {rate: 8, marks: good.marks, values: withValue(1, 104)},
		"negative value":  {rate: 8, marks: good.marks, values: withValue(1, -8)},
		"one value short": {rate: 8, marks: good.marks, values: good.values[1:]},
	} {
		if _, err := NewFromParts(occ, 4, b.Primary, counts, Options{Sampled: s}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	bad := append([]int32(nil), sa...)
	bad[1] = int32(len(text) + 1)
	if _, err := NewFromParts(occ, 4, b.Primary, counts, Options{SA: bad}); err == nil {
		t.Error("accepted a suffix array value past the text")
	}
}
