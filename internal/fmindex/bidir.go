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
	// key and closed by a terminal entry. The SMEM search reads from it every
	// extension whose result is at most k symbols long — the widest
	// intervals, with the worst rank locality — instead of ranking. It is a
	// host-side cache of rank results: a lookup still counts as one extension
	// step.
	//
	// Like Ftab it holds lower bounds: a string's count is the next key's
	// forward bound minus its own, less the text suffixes shorter than l
	// padded to the next key (tail). The reverse interval starts at the
	// entry's rev and has the same count.
	k     int
	short []biEntry
	tail  shortTail
}

// biEntry is one stored string: its forward lower bound, and the first row
// of its reverse interval (meaningless for a string absent from the text).
type biEntry struct{ fwd, rev int32 }

// maxShortK caps the table order: 8·((4^11-4)/3+10) bytes = 11.2 MB at k = 10.
const maxShortK = 10

// shortBase is the number of entries below level l: (4+1) + (16+1) + ... +
// (4^(l-1)+1).
func shortBase(l int) int { return (1<<(2*l)-4)/3 + l - 1 }

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
	if err := bi.buildShort(); err != nil {
		return nil, fmt.Errorf("fmindex: short-pattern table: %w", err)
	}
	return bi, nil
}

// buildShort fills the short-pattern table by interval refinement, as
// BuildFtab does: the four left extensions aX of a living X come from one
// StepAll on X's interval, with the mirror starts laid out as ExtendLeft
// orders them (sentinel first, then the alphabet); the extensions of an
// absent X take their forward bound from their right neighbour in one sweep
// per level, without any rank work. The order is the largest k <= maxShortK
// with 4^k <= n, a function of the text length alone.
func (bi *BiIndex) buildShort() error {
	if bi.sigma > ftabSigma {
		return nil // keys cover the DNA alphabet only
	}
	k := min(maxShortK, (bits.Len(uint(bi.Len()))-1)/2) // ⌊log₄ n⌋, capped
	tail, err := bi.fwd.shortTail(k - 1)
	if err != nil {
		return err
	}
	bi.k, bi.short, bi.tail = k, make([]biEntry, shortBase(k+1)), tail
	end := int32(bi.Len() + 1)
	var stepped [ftabSigma]Range
	for l := 0; l < k; l++ {
		level := bi.short[shortBase(l+1):shortBase(l+2)]
		for i := range level {
			level[i] = biEntry{fwd: -1} // filled by the sweep below
		}
		level[len(level)-1] = biEntry{fwd: end, rev: end}
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
				level[a<<(2*l)+key] = biEntry{fwd: int32(r.Start), rev: int32(rev)}
				rev += r.Count()
			}
		}
		for key := len(level) - 2; key >= 0; key-- {
			if level[key].fwd < 0 {
				level[key].fwd = level[key+1].fwd - int32(bi.tail.below(l+1, uint32(key+1), 1))
			}
		}
	}
	return nil
}

// lookup returns the stored interval of the l-symbol string with the given
// key, 1 <= l <= k: its entry and the next are adjacent, so one cache line.
func (bi *BiIndex) lookup(l int, key uint32) BiRange {
	at := shortBase(l) + int(key)
	e, next := bi.short[at], bi.short[at+1]
	last := int(next.fwd-e.fwd) - bi.tail.below(l, key+1, 1) - 1
	if last < 0 {
		return emptyBiRange
	}
	fwd, rev := int(e.fwd), int(e.rev)
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
// short-pattern table (8 bytes an entry).
func (bi *BiIndex) SizeBytes() int {
	return bi.fwd.SizeBytes() + bi.rev.SizeBytes() + 8*len(bi.short)
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
