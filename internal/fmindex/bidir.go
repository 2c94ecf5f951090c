package fmindex

import (
	"fmt"
	"math/bits"

	"bwaver/internal/rrr"
	"bwaver/internal/suffixarray"
	"bwaver/internal/wavelet"
)

// Bidirectional FM-index (Lam et al.'s 2BWT, the index inside BWA-MEM):
// two FM-indexes, one over the text and one over its reverse, holding
// synchronised intervals so a match can be extended in either direction in
// O(sigma) rank operations. It powers super-maximal exact match (SMEM)
// seeding — the modern replacement for the fixed-length seeds the paper's
// seed-and-extend motivation describes — and is the "integrate into real
// sequence analysis pipelines" extension of the paper's future work.
type BiIndex struct {
	fwd, rev *Index
	sigma    int

	// short is the short-pattern interval table: the bidirectional interval
	// of every DNA string of 1..k symbols, level after level (level l starts
	// at shortBase(l)), each level indexed by the string's big-endian base-4
	// key. The SMEM search reads from it every extension whose result is at
	// most k symbols long — the widest intervals, with the worst rank
	// locality — instead of ranking. It is a host-side cache of rank results:
	// a lookup still counts as one extension step.
	k     int
	short []biEntry
}

// biEntry is one stored interval; count 0 marks a string absent from the text.
type biEntry struct{ fwd, rev, count int32 }

// maxShortK caps the table order: 12·(4^11-4)/3 bytes = 16.8 MB at k = 10.
const maxShortK = 10

// shortBase is the number of entries below level l: 4 + 16 + ... + 4^(l-1).
func shortBase(l int) int { return (1<<(2*l) - 4) / 3 }

// BiRange is a pair of synchronised intervals: Fwd over the text's rows for
// the current pattern P, Rev over the reversed text's rows for reverse(P).
// Both always have the same size.
type BiRange struct {
	Fwd, Rev Range
}

// Empty reports whether the bidirectional interval is empty.
func (r BiRange) Empty() bool { return r.Fwd.Empty() }

// Count returns the number of occurrences.
func (r BiRange) Count() int { return r.Fwd.Count() }

// NewBiIndex builds bidirectional FM-indexes over text using the paper's
// succinct structure for both directions. The forward index carries the
// full suffix array for locating; the reverse index is count-only.
func NewBiIndex[E ~uint8](text []E, sigma int, params rrr.Params) (*BiIndex, error) {
	fwd, err := buildDirection(text, sigma, params, true)
	if err != nil {
		return nil, fmt.Errorf("fmindex: forward index: %w", err)
	}
	return NewBiIndexOver(fwd, text, params)
}

// NewBiIndexOver pairs fwd, an index already built over text, with a freshly
// built count-only index over the reversed text, and builds the
// short-pattern table: a caller that holds the forward direction (the exact
// mapping index) pays for the reverse one only.
func NewBiIndexOver[E ~uint8](fwd *Index, text []E, params rrr.Params) (*BiIndex, error) {
	if fwd.Len() != len(text) {
		return nil, fmt.Errorf("fmindex: forward index covers %d symbols, text has %d", fwd.Len(), len(text))
	}
	reversed := make([]uint8, len(text))
	for i, c := range text {
		reversed[len(text)-1-i] = uint8(c)
	}
	rev, err := buildDirection(reversed, fwd.sigma, params, false)
	if err != nil {
		return nil, fmt.Errorf("fmindex: reverse index: %w", err)
	}
	bi := &BiIndex{fwd: fwd, rev: rev, sigma: fwd.sigma}
	bi.buildShort()
	return bi, nil
}

// buildShort fills the short-pattern table by interval refinement, as
// BuildFtab does: the four left extensions aX of a living X come from one
// StepAll on X's interval, with the mirror starts laid out as ExtendLeft
// orders them (sentinel first, then the alphabet); the extensions of an
// absent X stay the zero entry without any rank work. The order is the
// largest k <= maxShortK with 4^k <= n, a function of the text length alone.
func (bi *BiIndex) buildShort() {
	if bi.sigma > ftabSigma {
		return // keys cover the DNA alphabet only
	}
	k := min(maxShortK, (bits.Len(uint(bi.Len()))-1)/2) // ⌊log₄ n⌋, capped
	bi.k, bi.short = k, make([]biEntry, shortBase(k+1))
	var stepped [ftabSigma]Range
	for l := 0; l < k; l++ {
		for key := 0; key < 1<<(2*l); key++ {
			x := bi.All()
			if l > 0 {
				x = bi.lookup(l, uint32(key))
			}
			if x.Empty() {
				continue
			}
			bi.fwd.StepAll(x.Fwd, stepped[:bi.sigma])
			rev := x.Rev.End + 1
			for _, r := range stepped[:bi.sigma] {
				rev -= r.Count()
			}
			for a, r := range stepped[:bi.sigma] {
				bi.short[shortBase(l+1)+a<<(2*l)+key] = biEntry{fwd: int32(r.Start), rev: int32(rev), count: int32(r.Count())}
				rev += r.Count()
			}
		}
	}
}

// lookup returns the stored interval of the l-symbol string with the given
// key, 1 <= l <= k.
func (bi *BiIndex) lookup(l int, key uint32) BiRange {
	e := bi.short[shortBase(l)+int(key)]
	if e.count == 0 {
		return emptyBiRange
	}
	fwd, rev, last := int(e.fwd), int(e.rev), int(e.count)-1
	return BiRange{Fwd: Range{Start: fwd, End: fwd + last}, Rev: Range{Start: rev, End: rev + last}}
}

// extendLeftAt is ExtendLeft for the SMEM search, which knows the pattern r
// stands for: n symbols long, with table key `key` while n <= k. A result of
// at most k symbols is read from the table. It returns the result's key.
func (bi *BiIndex) extendLeftAt(r BiRange, n int, key uint32, a uint8) (BiRange, uint32) {
	if n < bi.k && a < ftabSigma {
		key |= uint32(a) << (2 * n)
		return bi.lookup(n+1, key), key
	}
	return bi.ExtendLeft(r, a), key
}

// extendRightAt is the ExtendRight counterpart of extendLeftAt.
func (bi *BiIndex) extendRightAt(r BiRange, n int, key uint32, a uint8) (BiRange, uint32) {
	if n < bi.k && a < ftabSigma {
		key = key<<2 | uint32(a)
		return bi.lookup(n+1, key), key
	}
	return bi.ExtendRight(r, a), key
}

// buildDirection builds the index of one direction with the transform
// streamed from the suffix array into the wavelet nodes.
func buildDirection[E ~uint8](text []E, sigma int, params rrr.Params, withSA bool) (*Index, error) {
	sa, err := suffixarray.Build(text, sigma)
	if err != nil {
		return nil, err
	}
	streamed, err := StreamBWT(text, sa, sigma, wavelet.RRRBackend(params))
	if err != nil {
		return nil, err
	}
	occ, err := streamed.Encode()
	if err != nil {
		return nil, err
	}
	opts := Options{}
	if withSA {
		opts.SA = sa
	}
	return NewFromParts(occ, sigma, streamed.Primary, streamed.Counts, opts)
}

// Forward exposes the text-direction index (it has the suffix array).
func (bi *BiIndex) Forward() *Index { return bi.fwd }

// SizeBytes returns the host footprint of both directions and the
// short-pattern table (12 bytes an entry).
func (bi *BiIndex) SizeBytes() int {
	return bi.fwd.SizeBytes() + bi.rev.SizeBytes() + 12*len(bi.short)
}

// Len returns the text length.
func (bi *BiIndex) Len() int { return bi.fwd.Len() }

// All returns the interval of the empty pattern.
func (bi *BiIndex) All() BiRange {
	return BiRange{Fwd: bi.fwd.All(), Rev: bi.rev.All()}
}

// ExtendLeft extends the pattern P to aP. The forward interval follows the
// ordinary backward-search step; the reverse interval shifts by the counts
// of the siblings that sort before a: within the reverse interval (all rows
// prefixed by reverse(P)), sub-intervals are ordered by the symbol that
// follows reverse(P), i.e. by the symbol prepended to P — sentinel first,
// then the alphabet.
func (bi *BiIndex) ExtendLeft(r BiRange, a uint8) BiRange {
	return extendLeftOn(bi.fwd, bi.sigma, r, a)
}

// ExtendRight extends the pattern P to Pa, the mirror image of ExtendLeft
// with the two directions swapped: prepending a to reverse(P) on the
// reverse index yields reverse(Pa).
func (bi *BiIndex) ExtendRight(r BiRange, a uint8) BiRange {
	m := extendLeftOn(bi.rev, bi.sigma, BiRange{Fwd: r.Rev, Rev: r.Fwd}, a)
	return BiRange{Fwd: m.Rev, Rev: m.Fwd}
}

var emptyBiRange = BiRange{Fwd: Range{Start: 1, End: 0}, Rev: Range{Start: 1, End: 0}}

// extendLeftOn performs one left extension where stepIx indexes the
// direction being stepped and r.Fwd is its interval.
func extendLeftOn(stepIx *Index, sigma int, r BiRange, a uint8) BiRange {
	if int(a) >= sigma || r.Empty() {
		return emptyBiRange
	}
	// counts per prepended symbol b = occurrences of bP, resolved for the
	// whole alphabet at once: StepAll shares the endpoint rank traversals
	// across symbols, the dominant saving of the seeding hot loop.
	var stepped [maxStepAllSigma]Range
	var steppedSlice []Range
	if sigma <= maxStepAllSigma {
		steppedSlice = stepped[:sigma]
	} else {
		steppedSlice = make([]Range, sigma)
	}
	stepIx.StepAll(r.Fwd, steppedSlice)
	var smaller, total, cA int
	var newFwd Range
	for b := 0; b < sigma; b++ {
		c := steppedSlice[b].Count()
		total += c
		if b < int(a) {
			smaller += c
		}
		if b == int(a) {
			cA = c
			newFwd = steppedSlice[b]
		}
	}
	if cA == 0 {
		return emptyBiRange
	}
	// Rows of the mirror interval that end right after the shared prefix
	// (the sentinel extension) sort before every symbol extension.
	sentinel := r.Count() - total
	newRevStart := r.Rev.Start + sentinel + smaller
	return BiRange{
		Fwd: newFwd,
		Rev: Range{Start: newRevStart, End: newRevStart + cA - 1},
	}
}

// Count runs a full bidirectional search for pattern (left extensions), a
// correctness cross-check against the plain index.
func (bi *BiIndex) Count(pattern []uint8) BiRange {
	r := bi.All()
	for i := len(pattern) - 1; i >= 0; i-- {
		r = bi.ExtendLeft(r, pattern[i])
		if r.Empty() {
			return r
		}
	}
	return r
}
