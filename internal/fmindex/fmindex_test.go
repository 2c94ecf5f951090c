package fmindex

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"bwaver/internal/bwt"
	"bwaver/internal/rrr"
	"bwaver/internal/suffixarray"
)

var testParams = rrr.Params{BlockSize: 15, SuperblockFactor: 10}

// naiveOccurrences returns all starting positions of pattern in text.
func naiveOccurrences(text, pattern []uint8) []int32 {
	var out []int32
	if len(pattern) == 0 {
		for i := 0; i <= len(text); i++ {
			out = append(out, int32(i))
		}
		return out
	}
outer:
	for i := 0; i+len(pattern) <= len(text); i++ {
		for j := range pattern {
			if text[i+j] != pattern[j] {
				continue outer
			}
		}
		out = append(out, int32(i))
	}
	return out
}

func buildText(rng *rand.Rand, n int) []uint8 {
	t := make([]uint8, n)
	for i := range t {
		t[i] = uint8(rng.Intn(4))
	}
	return t
}

type indexKind struct {
	name  string
	build func(t *testing.T, text []uint8) *Index
}

func buildWith(t *testing.T, text []uint8, mk func(data []uint8) (OccProvider, error), opts func(sa []int32) Options) *Index {
	t.Helper()
	sa, err := suffixarray.Build(text, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bwt.Transform(text, sa)
	if err != nil {
		t.Fatal(err)
	}
	occ, err := mk(b.Data)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(b, 4, occ, opts(sa))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func fullSAOpts(sa []int32) Options { return Options{SA: sa} }

func sampledOpts(rate int) func(sa []int32) Options {
	return func(sa []int32) Options {
		s, err := NewSampledSA(sa, rate)
		if err != nil {
			panic(err)
		}
		return Options{Sampled: s}
	}
}

func indexKinds() []indexKind {
	wl := func(data []uint8) (OccProvider, error) { return NewWaveletOcc(data, 4, testParams) }
	flat := func(data []uint8) (OccProvider, error) { return NewFlatOcc(data, 4) }
	cp := func(data []uint8) (OccProvider, error) { return NewCheckpointOcc(data) }
	return []indexKind{
		{"wavelet-rrr+fullSA", func(t *testing.T, tx []uint8) *Index { return buildWith(t, tx, wl, fullSAOpts) }},
		{"flat+fullSA", func(t *testing.T, tx []uint8) *Index { return buildWith(t, tx, flat, fullSAOpts) }},
		{"checkpoint+fullSA", func(t *testing.T, tx []uint8) *Index { return buildWith(t, tx, cp, fullSAOpts) }},
		{"wavelet-rrr+sampled4", func(t *testing.T, tx []uint8) *Index { return buildWith(t, tx, wl, sampledOpts(4)) }},
		{"checkpoint+sampled8", func(t *testing.T, tx []uint8) *Index { return buildWith(t, tx, cp, sampledOpts(8)) }},
	}
}

func sortedEqual(a, b []int32) bool {
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

func TestCountAndLocateMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	text := buildText(rng, 3000)
	sa, err := suffixarray.Build(text, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range indexKinds() {
		ix := kind.build(t, text)
		// LF steps every row but the sentinel's over the text symbol before
		// its suffix, to the row of the suffix one position left.
		for row, pos := range sa {
			if pos == 0 {
				continue // the sentinel row
			}
			sym, next, err := ix.LF(row)
			if err != nil || sym != text[pos-1] || sa[next] != pos-1 {
				t.Fatalf("%s: LF(%d) = (%d, %d, %v), want symbol %d and the row of suffix %d", kind.name, row, sym, next, err, text[pos-1], pos-1)
			}
		}
		// Patterns: sampled substrings (guaranteed hits), random patterns,
		// and patterns guaranteed absent (longer than text tail match).
		for trial := 0; trial < 120; trial++ {
			var pattern []uint8
			switch trial % 3 {
			case 0: // substring
				l := 1 + rng.Intn(30)
				s := rng.Intn(len(text) - l)
				pattern = append([]uint8(nil), text[s:s+l]...)
			case 1: // random
				pattern = buildText(rng, 1+rng.Intn(12))
			case 2: // likely absent: long random
				pattern = buildText(rng, 25)
			}
			want := naiveOccurrences(text, pattern)
			r := ix.Count(pattern)
			if r.Count() != len(want) {
				t.Fatalf("%s: Count(%v) = %d, want %d", kind.name, pattern, r.Count(), len(want))
			}
			if len(want) == 0 {
				continue
			}
			got, err := ix.Locate(r)
			if err != nil {
				t.Fatalf("%s: Locate: %v", kind.name, err)
			}
			if !sortedEqual(got, want) {
				t.Fatalf("%s: Locate mismatch for %v: got %v, want %v", kind.name, pattern, got, want)
			}
		}
	}
}

func TestEmptyPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	text := buildText(rng, 50)
	ix := indexKinds()[0].build(t, text)
	r := ix.Count(nil)
	if r.Count() != len(text)+1 {
		t.Errorf("empty pattern matched %d rows, want %d", r.Count(), len(text)+1)
	}
}

func TestPatternLongerThanText(t *testing.T) {
	text := []uint8{0, 1, 2}
	ix := indexKinds()[0].build(t, text)
	r := ix.Count([]uint8{0, 1, 2, 3, 0})
	if !r.Empty() {
		t.Errorf("over-long pattern matched %d rows", r.Count())
	}
}

func TestWholeTextMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	text := buildText(rng, 500)
	for _, kind := range indexKinds() {
		ix := kind.build(t, text)
		r := ix.Count(text)
		if r.Count() != 1 {
			t.Fatalf("%s: whole text matched %d times, want 1", kind.name, r.Count())
		}
		pos, err := ix.Locate(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(pos) != 1 || pos[0] != 0 {
			t.Fatalf("%s: whole text located at %v, want [0]", kind.name, pos)
		}
	}
}

func TestStepsTaken(t *testing.T) {
	// Construct a text without symbol 3 so any pattern ending in 3 stops
	// after one step.
	text := make([]uint8, 200)
	for i := range text {
		text[i] = uint8(i % 3)
	}
	ix := indexKinds()[0].build(t, text)
	if _, got := ix.CountSteps([]uint8{0, 1, 3}); got != 1 {
		t.Errorf("StepsTaken for dead-end tail = %d, want 1", got)
	}
	pat := text[10:30]
	if _, got := ix.CountSteps(pat); got != len(pat) {
		t.Errorf("StepsTaken for matching pattern = %d, want %d", got, len(pat))
	}
}

// TestStepPairMatchesTwoOcc checks the pair-fused Step and StepAll of the
// wavelet provider against equations 4 and 5 written out with
// two Occ queries, on ranges below, above, next to and across the sentinel
// row — where the two ends translate to compact positions differently.
func TestStepPairMatchesTwoOcc(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	text := buildText(rng, 3000)
	for _, kind := range indexKinds()[:1] {
		ix := kind.build(t, text)
		if ix.wocc == nil {
			t.Fatalf("%s: index does not hold its wavelet provider concretely", kind.name)
		}
		p, n := ix.Primary(), ix.Len()
		if p < 2 || p > n-2 {
			t.Fatalf("sentinel row %d leaves no room on both sides of [0,%d]", p, n)
		}
		ranges := []Range{
			ix.All(), {0, 0}, {n, n}, {1, 0}, // everything, the two ends, an empty range
			{0, p - 1}, {p - 1, p - 1}, {p - 2, p - 1}, // below, ending next to the sentinel
			{p, p}, {p - 1, p}, {p, p + 1}, {p - 1, p + 1}, {0, p}, {p, n}, // containing it
			{p + 1, p + 1}, {p + 1, p + 2}, {p + 1, n}, // above, starting next to it
		}
		for trial := 0; trial < 300; trial++ {
			start := rng.Intn(n + 1)
			ranges = append(ranges, Range{start, min(start+rng.Intn(50), n)})
		}
		reference := func(r Range, sym uint8) Range {
			i, j := r.Start, r.End+1
			if i > p {
				i--
			}
			if j > p {
				j--
			}
			return Range{ix.cFull[sym] + ix.occ.Occ(sym, i), ix.cFull[sym] + ix.occ.Occ(sym, j) - 1}
		}
		all := make([]Range, 4)
		for _, r := range ranges {
			ix.StepAll(r, all)
			for sym := uint8(0); sym < 4; sym++ {
				want := reference(r, sym)
				if got := ix.Step(r, sym); got != want {
					t.Fatalf("%s: Step(%v,%d)=%v, two-Occ reference %v (sentinel row %d)", kind.name, r, sym, got, want, p)
				}
				if all[sym] != want {
					t.Fatalf("%s: StepAll(%v)[%d]=%v, two-Occ reference %v (sentinel row %d)", kind.name, r, sym, all[sym], want, p)
				}
			}
		}
	}
}

func TestInvalidSymbolInPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	text := buildText(rng, 100)
	ix := indexKinds()[0].build(t, text)
	r := ix.Count([]uint8{0, 9, 1})
	if !r.Empty() {
		t.Errorf("pattern with invalid symbol matched %d rows", r.Count())
	}
}

func TestLFWalkReconstructsText(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	text := buildText(rng, 400)
	for _, kind := range indexKinds()[:4] { // full-SA kinds
		ix := kind.build(t, text)
		// Walk LF from row 0 (sentinel suffix) and reconstruct backwards.
		row := 0
		got := make([]uint8, len(text))
		for i := len(text) - 1; i >= 0; i-- {
			sym, next, err := ix.LF(row)
			if err != nil {
				t.Fatalf("%s: LF: %v", kind.name, err)
			}
			got[i], row = sym, next
		}
		if row != ix.Primary() {
			t.Fatalf("%s: LF walk ended at %d, want primary %d", kind.name, row, ix.Primary())
		}
		for i := range text {
			if got[i] != text[i] {
				t.Fatalf("%s: LF reconstruction differs at %d", kind.name, i)
			}
		}
	}
}

func TestLFOnSentinelRowFails(t *testing.T) {
	text := []uint8{0, 1, 2, 3}
	ix := indexKinds()[0].build(t, text)
	if _, _, err := ix.LF(ix.Primary()); err == nil {
		t.Error("LF on sentinel row should fail")
	}
}

func TestSampledLocateAllRates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	text := buildText(rng, 800)
	for _, rate := range []int{1, 2, 3, 7, 16, 64} {
		ix := buildWith(t, text,
			func(d []uint8) (OccProvider, error) { return NewWaveletOcc(d, 4, testParams) },
			sampledOpts(rate))
		for trial := 0; trial < 25; trial++ {
			l := 1 + rng.Intn(10)
			s := rng.Intn(len(text) - l)
			pattern := text[s : s+l]
			want := naiveOccurrences(text, pattern)
			got, err := ix.Locate(ix.Count(pattern))
			if err != nil {
				t.Fatalf("rate=%d: %v", rate, err)
			}
			if !sortedEqual(got, want) {
				t.Fatalf("rate=%d: locate mismatch", rate)
			}
		}
	}
}

func TestLocateWithoutSupportFails(t *testing.T) {
	text := []uint8{0, 1, 0, 1}
	ix := buildWith(t, text,
		func(d []uint8) (OccProvider, error) { return NewFlatOcc(d, 4) },
		func([]int32) Options { return Options{} })
	if _, err := ix.Locate(ix.Count([]uint8{0, 1})); err == nil {
		t.Error("Locate without SA should fail")
	}
}

func TestNewValidation(t *testing.T) {
	text := []uint8{0, 1, 2, 3}
	sa, _ := suffixarray.Build(text, 4)
	b, _ := bwt.Transform(text, sa)
	occ, _ := NewFlatOcc(b.Data, 4)
	if _, err := New(b, 4, occ, Options{SA: sa[:2]}); err == nil {
		t.Error("accepted short SA")
	}
	shortOcc, _ := NewFlatOcc(b.Data[:2], 4)
	if _, err := New(b, 4, shortOcc, Options{}); err == nil {
		t.Error("accepted occ of wrong length")
	}
	badBWT := &bwt.BWT{Data: b.Data, Primary: 99}
	if _, err := New(badBWT, 4, occ, Options{}); err == nil {
		t.Error("accepted bad primary")
	}
	if _, err := NewSampledSA(sa, 0); err == nil {
		t.Error("accepted zero sample rate")
	}
}

// Property: count via FM equals count via naive scan for random DNA.
func TestCountProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	text := buildText(rng, 1200)
	ix := indexKinds()[0].build(t, text)
	f := func(raw []byte) bool {
		if len(raw) > 20 {
			raw = raw[:20]
		}
		pattern := make([]uint8, len(raw))
		for i, r := range raw {
			pattern[i] = r & 3
		}
		return ix.Count(pattern).Count() == len(naiveOccurrences(text, pattern))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the interval never grows as the pattern extends (paper §III-A:
// "the size of the interval either shrinks or remains the same").
func TestIntervalMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	text := buildText(rng, 600)
	ix := indexKinds()[0].build(t, text)
	for trial := 0; trial < 50; trial++ {
		pattern := buildText(rng, 15)
		r := ix.All()
		prev := r.Count()
		for i := len(pattern) - 1; i >= 0; i-- {
			r = ix.Step(r, pattern[i])
			if r.Count() > prev {
				t.Fatalf("interval grew from %d to %d", prev, r.Count())
			}
			prev = r.Count()
			if r.Empty() {
				break
			}
		}
	}
}

func TestOccProviderSizes(t *testing.T) {
	// Size ordering wavelet < checkpoint < flat holds on BWT-like data: long
	// runs of equal symbols, which is what the Occ providers actually store
	// in BWaveR. On maximum-entropy data RRR cannot compress and the shared
	// table dominates, so the test builds run-structured input.
	rng := rand.New(rand.NewSource(8))
	data := make([]uint8, 500000)
	cur := uint8(rng.Intn(4))
	for i := 0; i < len(data); {
		for j, runLen := 0, 1+rng.Intn(120); j < runLen && i < len(data); j++ {
			data[i] = cur
			i++
		}
		cur = uint8(rng.Intn(4))
	}
	wl, err := NewWaveletOcc(data, 4, rrr.Params{BlockSize: 15, SuperblockFactor: 100})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewCheckpointOcc(data)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := NewFlatOcc(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !(wl.SizeBytes() < cp.SizeBytes() && cp.SizeBytes() < fl.SizeBytes()) {
		t.Errorf("expected wavelet(%d) < checkpoint(%d) < flat(%d)",
			wl.SizeBytes(), cp.SizeBytes(), fl.SizeBytes())
	}
}

func TestCheckpointOccRejectsNonDNA(t *testing.T) {
	if _, err := NewCheckpointOcc([]uint8{0, 1, 7}); err == nil {
		t.Error("checkpoint occ accepted non-DNA symbol")
	}
}

func TestOccWordAllSymbols(t *testing.T) {
	// Word with symbols 0,1,2,3 repeating.
	var w uint64
	for i := 0; i < 32; i++ {
		w |= uint64(i%4) << uint(i*2)
	}
	for sym := uint8(0); sym < 4; sym++ {
		for k := 0; k <= 32; k++ {
			want := 0
			for i := 0; i < k; i++ {
				if i%4 == int(sym) {
					want++
				}
			}
			if got := occWord(w, sym, k); got != want {
				t.Fatalf("occWord(sym=%d,k=%d) = %d, want %d", sym, k, got, want)
			}
		}
	}
}

// FlatOcc stores Occ(sym, i) for every position — O(1) queries at
// 4·sigma bytes per symbol: the tests' reference provider, and the "unable
// to take advantage of a compressed index" extreme the paper contrasts
// against.
type FlatOcc struct {
	sigma int
	n     int
	table [][]int32 // table[sym][i]
}

// NewFlatOcc builds the flat table.
func NewFlatOcc(data []uint8, sigma int) (*FlatOcc, error) {
	f := &FlatOcc{sigma: sigma, n: len(data), table: make([][]int32, sigma)}
	for s := range f.table {
		f.table[s] = make([]int32, len(data)+1)
	}
	for i, c := range data {
		if int(c) >= sigma {
			return nil, fmt.Errorf("fmindex: symbol %d outside alphabet [0,%d)", c, sigma)
		}
		for s := 0; s < sigma; s++ {
			f.table[s][i+1] = f.table[s][i]
		}
		f.table[c][i+1]++
	}
	return f, nil
}

func (f *FlatOcc) Occ(sym uint8, i int) int { return int(f.table[sym][i]) }

// Symbol finds the one symbol whose count rises across position i.
func (f *FlatOcc) Symbol(i int) uint8 {
	s := 0
	for f.table[s][i+1] == f.table[s][i] {
		s++
	}
	return uint8(s)
}

func (f *FlatOcc) Len() int { return f.n }

func (f *FlatOcc) Sigma() int { return f.sigma }

func (f *FlatOcc) SizeBytes() int { return f.sigma * (f.n + 1) * 4 }

func (f *FlatOcc) Name() string { return "flat" }
