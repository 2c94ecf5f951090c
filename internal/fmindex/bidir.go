package fmindex

import (
	"fmt"
	"math/bits"
	"slices"

	"bwaver/internal/dna"
	"bwaver/internal/rrr"
	"bwaver/internal/suffixarray"
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
	// text is the caller's packed text: the SMEM search reads it once a
	// match has at most locateMax occurrences, maxLocated when the forward
	// direction holds the full suffix array and 1 when it walks to samples.
	text      packedText
	locateMax int

	// k is the order of the prefix tables the SMEM search reads every
	// extension whose result is at most k symbols long from — the widest
	// intervals, with the worst rank locality — instead of ranking: ftab
	// over the forward rows, rtab over the reverse ones, both Ftabs of
	// lower bounds. A string's forward interval is ftab's span, and its
	// reverse interval starts at rtab's bound of the reversed string with
	// the same count. They are a host-side cache of rank results: a lookup
	// still counts as one extension step. ftab is the forward index's
	// attached table when that one's order is at least k, otherwise one of
	// the BiIndex's own, never attached; rtab is the BiIndex's.
	k          int
	ftab, rtab *Ftab
}

// maxShortK caps the tables' order: a k = 10 table is 4·(4^10+1) bytes, 4 MiB.
const maxShortK = 10

// BiRange is a pair of synchronised intervals: Fwd over the text's rows for
// the current pattern P, Rev over the reversed text's rows for reverse(P).
// Both always have the same size.
type BiRange struct {
	Fwd, Rev Range
}

// empty reports whether the bidirectional interval is empty.
func (r BiRange) empty() bool { return r.Fwd.Empty() }

// count returns the number of occurrences.
func (r BiRange) count() int { return r.Fwd.Count() }

// NewBiIndex builds bidirectional FM-indexes over text using the paper's
// succinct structure for both directions. The forward index carries the
// full suffix array for locating; the reverse index is count-only. The
// index keeps text two bits a symbol: an alphabet of more than four symbols,
// or a symbol outside the alphabet, is an error.
func NewBiIndex(text []uint8, sigma int, params rrr.Params) (*BiIndex, error) {
	fwd, err := buildDirection(text, sigma, params, true)
	if err != nil {
		return nil, fmt.Errorf("fmindex: forward index: %w", err)
	}
	return NewBiIndexOver(fwd, dna.Pack(text), params)
}

// NewBiIndexOver pairs fwd, an index already built over text, with a freshly
// built count-only index over the reversed text, and takes the prefix
// tables: a caller that holds the forward direction and its table (the exact
// mapping index) pays for the reverse ones only. fwd must locate — through
// a full or a sampled suffix array — because the SMEM search locates a
// match of few occurrences and reads text from there on. The index shares
// text's words, which the caller must not modify.
func NewBiIndexOver(fwd *Index, text dna.PackedSeq, params rrr.Params) (*BiIndex, error) {
	switch {
	case fwd.Len() != text.Len():
		return nil, fmt.Errorf("fmindex: forward index covers %d symbols, text has %d", fwd.Len(), text.Len())
	case fwd.sigma > ftabSigma:
		return nil, fmt.Errorf("fmindex: no packed text for an alphabet of %d symbols", fwd.sigma)
	case fwd.sa == nil && fwd.sampled == nil:
		return nil, errNoLocate
	}
	reversed := text.Unpack()
	slices.Reverse(reversed)
	rev, err := buildDirection(reversed, fwd.sigma, params, false)
	if err != nil {
		return nil, fmt.Errorf("fmindex: reverse index: %w", err)
	}
	bi := &BiIndex{fwd: fwd, rev: rev, sigma: fwd.sigma, text: text.Words(), locateMax: 1}
	if fwd.sa != nil {
		bi.locateMax = maxLocated
	}
	if err := bi.takeTables(); err != nil {
		return nil, fmt.Errorf("fmindex: prefix tables: %w", err)
	}
	return bi, nil
}

// takeTables sets the order — the largest k <= maxShortK with 4^k <= n, a
// function of the text length alone — and the two tables: the forward
// index's own when it is deep enough, one built otherwise, and the reverse
// one built.
func (bi *BiIndex) takeTables() error {
	k := min(maxShortK, (bits.Len(uint(bi.length()))-1)/2) // ⌊log₄ n⌋, capped
	if k < 1 {
		return nil // under 4 symbols, no level
	}
	ftab := bi.fwd.Ftab()
	if ftab == nil || ftab.K() < k {
		var err error
		if ftab, err = bi.fwd.BuildFtab(k); err != nil {
			return err
		}
	}
	rtab, err := bi.rev.BuildFtab(k)
	if err != nil {
		return err
	}
	bi.k, bi.ftab, bi.rtab = k, ftab, rtab
	return nil
}

// lookup returns the interval of the l-symbol string with the given key,
// 1 <= l <= k: the forward table's span, and the reverse one from the
// reverse table's bound of the string read backwards.
func (bi *BiIndex) lookup(l int, key uint32) BiRange {
	return bi.withRev(bi.ftab.span(l, int(key)), l, key)
}

// window is lookup for a match the SMEM search goes on from: one of at
// most locateMax rows is located before anything reads more than its
// forward interval, so its reverse one is left empty and the reverse table
// unread. Only an interval that stays ranked costs the second miss.
func (bi *BiIndex) window(l int, key uint32) BiRange {
	fwd := bi.ftab.span(l, int(key))
	if n := fwd.Count(); n > 0 && n <= bi.locateMax {
		return BiRange{Fwd: fwd, Rev: emptyBiRange.Rev}
	}
	return bi.withRev(fwd, l, key)
}

// withRev pairs the forward interval of the l-symbol string key with its
// reverse one, which starts at the reverse table's bound of the string read
// backwards and holds as many rows.
func (bi *BiIndex) withRev(fwd Range, l int, key uint32) BiRange {
	if fwd.Empty() {
		return emptyBiRange
	}
	rev := bi.rtab.start(l, int(reverseKey(key, l)))
	return BiRange{Fwd: fwd, Rev: Range{Start: rev, End: rev + fwd.End - fwd.Start}}
}

// reverseKey returns the key of the l-symbol string key read backwards:
// the bits reversed, then each symbol's two bits swapped back.
func reverseKey(key uint32, l int) uint32 {
	r := bits.Reverse32(key)
	r = r>>1&0x55555555 | r&0x55555555<<1
	return r >> (32 - 2*l)
}

// extendRightAt is extendRight for the SMEM search, which knows the pattern
// r stands for: n symbols long, with table key `key` while n <= k. A result
// of at most k symbols is read from the tables. It returns the result's key.
func (bi *BiIndex) extendRightAt(r BiRange, n int, key uint32, a uint8) (BiRange, uint32) {
	if n < bi.k && a < ftabSigma {
		key = key<<2 | uint32(a)
		return bi.lookup(n+1, key), key
	}
	return bi.extendRight(r, a), key
}

// buildDirection builds the index of one direction with the transform
// streamed from the suffix array into the wavelet nodes.
func buildDirection[E ~uint8](text []E, sigma int, params rrr.Params, withSA bool) (*Index, error) {
	sa, err := suffixarray.Build(text, sigma)
	if err != nil {
		return nil, err
	}
	streamed, err := StreamBWT(text, sa, sigma, params)
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

// SizeBytes returns the host footprint of both directions and the prefix
// tables; the text is the caller's and not counted. The forward table counts
// in the forward index's footprint while it is attached there, so it is
// added only when it is not: compared now, not at construction, since the
// forward index's table may have been swapped.
func (bi *BiIndex) SizeBytes() int {
	size := bi.fwd.SizeBytes() + bi.rev.SizeBytes()
	if bi.rtab != nil {
		size += bi.rtab.SizeBytes()
		if bi.ftab != bi.fwd.Ftab() {
			size += bi.ftab.SizeBytes()
		}
	}
	return size
}

// length returns the text length.
func (bi *BiIndex) length() int { return bi.fwd.Len() }

// all returns the interval of the empty pattern.
func (bi *BiIndex) all() BiRange {
	return BiRange{Fwd: bi.fwd.All(), Rev: bi.rev.All()}
}

// extendLeft extends the pattern P to aP. The forward interval follows the
// ordinary backward-search step; the reverse interval shifts by the counts
// of the siblings that sort before a: within the reverse interval (all rows
// prefixed by reverse(P)), sub-intervals are ordered by the symbol that
// follows reverse(P), i.e. by the symbol prepended to P — sentinel first,
// then the alphabet.
func (bi *BiIndex) extendLeft(r BiRange, a uint8) BiRange {
	return extendLeftOn(bi.fwd, bi.sigma, r, a)
}

// extendRight extends the pattern P to Pa, the mirror image of extendLeft
// with the two directions swapped: prepending a to reverse(P) on the
// reverse index yields reverse(Pa).
func (bi *BiIndex) extendRight(r BiRange, a uint8) BiRange {
	m := extendLeftOn(bi.rev, bi.sigma, BiRange{Fwd: r.Rev, Rev: r.Fwd}, a)
	return BiRange{Fwd: m.Rev, Rev: m.Fwd}
}

var emptyBiRange = BiRange{Fwd: Range{Start: 1, End: 0}, Rev: Range{Start: 1, End: 0}}

// extendLeftOn performs one left extension where stepIx indexes the
// direction being stepped and r.Fwd is its interval.
func extendLeftOn(stepIx *Index, sigma int, r BiRange, a uint8) BiRange {
	if int(a) >= sigma || r.empty() {
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
	sentinel := r.count() - total
	newRevStart := r.Rev.Start + sentinel + smaller
	return BiRange{
		Fwd: newFwd,
		Rev: Range{Start: newRevStart, End: newRevStart + cA - 1},
	}
}
