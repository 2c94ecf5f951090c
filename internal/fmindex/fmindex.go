// Package fmindex implements the FM-index backward search of Ferragina and
// Manzini as used by the BWaveR paper (§III-A): given the BWT of a reference
// and an Occ structure over it, it finds the suffix-array interval of every
// suffix of the pattern in O(p) rank queries, then reports occurrence
// positions through a full or sampled suffix array.
package fmindex

import (
	"errors"
	"fmt"

	"bwaver/internal/bitvec"
	"bwaver/internal/bwt"
)

// Range is an inclusive interval [Start, End] of rows of the conceptual
// Burrows-Wheeler matrix (the paper's [start(X), end(X)]). An empty match is
// any range with Start > End.
type Range struct {
	Start, End int
}

// Empty reports whether the range contains no rows.
func (r Range) Empty() bool { return r.Start > r.End }

// Count returns the number of rows (pattern occurrences) in the range.
func (r Range) Count() int {
	if r.Empty() {
		return 0
	}
	return r.End - r.Start + 1
}

// Index is an FM-index over a text of length n. Rows are numbered 0..n over
// the full Burrows-Wheeler matrix; row 0 always corresponds to the sentinel
// suffix.
type Index struct {
	occ OccProvider
	// wocc is occ's concrete form when it is the wavelet provider. Step and
	// StepAll call through it directly, with both ends of the range in one
	// tree walk; for StepAll the devirtualized call also lets escape analysis
	// keep the whole-alphabet count buffers on the stack, where the interface
	// call would force a heap allocation per step.
	wocc    *WaveletOcc
	sigma   int
	primary int
	n       int
	// cFull[s] = number of matrix rows whose first symbol sorts before s,
	// including the sentinel row; cFull[sigma] = n+1.
	cFull []int

	sa      []int32    // full suffix array (optional)
	sampled *SampledSA // sampled suffix array (optional)
	ftab    *Ftab      // k-mer prefix-lookup table (optional)
}

// Options configure locate support.
type Options struct {
	// SA is the full suffix array (length n+1). If set, Locate is O(1) per
	// occurrence; this is what the paper's host does.
	SA []int32
	// SampleRate, if > 0 and SA is nil at build time, is not valid — build
	// a SampledSA with NewSampledSA and pass it here instead.
	Sampled *SampledSA
}

// New builds an Index from a BWT, its alphabet size, and an Occ provider
// that must already encode b.Data.
func New(b *bwt.BWT, sigma int, occ OccProvider, opts Options) (*Index, error) {
	counts, err := b.SymbolCounts(sigma)
	if err != nil {
		return nil, err
	}
	return NewFromParts(occ, sigma, b.Primary, counts, opts)
}

// NewFromParts builds an Index from an already-encoded Occ provider, the
// sentinel position, and per-symbol counts — the deserialization path, where
// no raw BWT data exists.
func NewFromParts(occ OccProvider, sigma, primary int, counts []int, opts Options) (*Index, error) {
	if occ.Sigma() < sigma {
		return nil, fmt.Errorf("fmindex: occ provider alphabet %d smaller than %d", occ.Sigma(), sigma)
	}
	if len(counts) != sigma {
		return nil, fmt.Errorf("fmindex: %d symbol counts for alphabet of %d", len(counts), sigma)
	}
	n := occ.Len()
	total := 0
	for s, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("fmindex: negative count for symbol %d", s)
		}
		total += c
	}
	if total != n {
		return nil, fmt.Errorf("fmindex: symbol counts sum to %d, occ covers %d", total, n)
	}
	if primary < 0 || primary > n {
		return nil, fmt.Errorf("fmindex: primary index %d out of range [0,%d]", primary, n)
	}
	cFull := make([]int, sigma+1)
	cFull[0] = 1 // the sentinel row
	for s := 0; s < sigma; s++ {
		cFull[s+1] = cFull[s] + counts[s]
	}
	ix := &Index{occ: occ, sigma: sigma, primary: primary, n: n, cFull: cFull}
	ix.wocc, _ = occ.(*WaveletOcc)
	if opts.SA != nil {
		if len(opts.SA) != n+1 {
			return nil, fmt.Errorf("fmindex: suffix array length %d, want %d", len(opts.SA), n+1)
		}
		ix.sa = opts.SA
	}
	ix.sampled = opts.Sampled
	return ix, nil
}

// SymbolCount returns the number of occurrences of sym in the text.
func (ix *Index) SymbolCount(sym uint8) int {
	if int(sym) >= ix.sigma {
		return 0
	}
	return ix.cFull[sym+1] - ix.cFull[sym]
}

// SA returns the full suffix array if the index holds one, else nil.
func (ix *Index) SA() []int32 { return ix.sa }

// Sampled returns the sampled suffix array if the index holds one, else nil.
func (ix *Index) Sampled() *SampledSA { return ix.sampled }

// Len returns the text length n.
func (ix *Index) Len() int { return ix.n }

// Sigma returns the alphabet size.
func (ix *Index) Sigma() int { return ix.sigma }

// Primary returns the sentinel row.
func (ix *Index) Primary() int { return ix.primary }

// OccName reports the underlying Occ provider.
func (ix *Index) OccName() string { return ix.occ.Name() }

// OccProvider exposes the underlying Occ structure (for serialization).
func (ix *Index) OccProvider() OccProvider { return ix.occ }

// compact translates a position of the full transform to one of the compact
// BWT data the Occ structure encodes, which leaves the sentinel slot out —
// the paper's separate-$ optimisation.
func (ix *Index) compact(i int) int {
	if i > ix.primary {
		i--
	}
	return i
}

// occFull answers Occ over the full transform.
func (ix *Index) occFull(sym uint8, i int) int {
	return ix.occ.Occ(sym, ix.compact(i))
}

// All returns the range covering every row (the empty-pattern interval).
func (ix *Index) All() Range { return Range{Start: 0, End: ix.n} }

// Step extends the current match range one symbol to the left: if r is the
// interval of rows prefixed by X, Step(r, a) is the interval for aX
// (equations 4 and 5 of the paper). On the wavelet provider both ends go
// down the tree together, as the paper's kernel resolves them in one pass
// over each node; other providers answer two Occ queries. The FPGA simulator
// calls this per base so its cycle accounting mirrors the real kernel's
// per-step rank pair.
func (ix *Index) Step(r Range, sym uint8) Range {
	if int(sym) >= ix.sigma {
		return Range{Start: 1, End: 0}
	}
	if ix.wocc != nil {
		lo, hi := ix.wocc.Tree.RankPair(sym, ix.compact(r.Start), ix.compact(r.End+1))
		return Range{Start: ix.cFull[sym] + lo, End: ix.cFull[sym] + hi - 1}
	}
	return Range{
		Start: ix.cFull[sym] + ix.occFull(sym, r.Start),
		End:   ix.cFull[sym] + ix.occFull(sym, r.End+1) - 1,
	}
}

// maxStepAllSigma bounds the stack scratch StepAll uses for its
// whole-alphabet Occ queries; alphabets larger than this fall back to
// per-symbol stepping.
const maxStepAllSigma = 8

// StepAll computes Step(r, b) for every symbol b in [0, sigma) into
// dst[0:sigma]. When the Occ provider supports whole-alphabet queries
// (OccAller — the wavelet structure does) it resolves all sigma steps with
// one traversal that carries both interval endpoints: for DNA that is 3
// paired bit-vector ranks instead of the 16 single ones that four separate
// Step calls used to issue. The bidirectional extension step — the seeding
// hot loop, which needs every symbol's interval to maintain the mirror
// range — is built on it.
func (ix *Index) StepAll(r Range, dst []Range) {
	if ix.wocc == nil || ix.sigma > maxStepAllSigma {
		ix.stepAllGeneric(r, dst)
		return
	}
	// Direct wavelet calls: devirtualized, so escape analysis keeps the
	// count buffers on the stack (a per-variable property — which is why the
	// interface-based fallback lives in a separate function, so its escaping
	// buffers cannot taint this path).
	var lo, hi [maxStepAllSigma]int
	ix.wocc.Tree.RankAllPair(ix.compact(r.Start), ix.compact(r.End+1), lo[:ix.sigma], hi[:ix.sigma])
	for b := 0; b < ix.sigma; b++ {
		dst[b] = Range{Start: ix.cFull[b] + lo[b], End: ix.cFull[b] + hi[b] - 1}
	}
}

// stepAllGeneric is StepAll over an arbitrary provider: whole-alphabet
// queries through the OccAller interface when available, per-symbol Step
// otherwise.
func (ix *Index) stepAllGeneric(r Range, dst []Range) {
	oa, ok := ix.occ.(OccAller)
	if !ok || ix.sigma > maxStepAllSigma {
		for b := 0; b < ix.sigma; b++ {
			dst[b] = ix.Step(r, uint8(b))
		}
		return
	}
	var lo, hi [maxStepAllSigma]int
	oa.OccAll(ix.compact(r.Start), lo[:ix.sigma])
	oa.OccAll(ix.compact(r.End+1), hi[:ix.sigma])
	for b := 0; b < ix.sigma; b++ {
		dst[b] = Range{Start: ix.cFull[b] + lo[b], End: ix.cFull[b] + hi[b] - 1}
	}
}

// Count runs the backward search for pattern and returns its row range.
// An empty pattern matches every row. The search stops as soon as the range
// becomes empty — the early-exit the paper leans on to explain why unmapped
// reads are cheaper (Fig. 7 discussion).
func (ix *Index) Count(pattern []uint8) Range {
	r, _ := ix.CountSteps(pattern)
	return r
}

// CountSteps is Count that also reports how many steps it performed before
// matching or dying: the full length for a matching read, fewer for one that
// falls off early. The step count drives the FPGA cycle model.
func (ix *Index) CountSteps(pattern []uint8) (Range, int) {
	r := ix.All()
	for i := len(pattern) - 1; i >= 0; i-- {
		r = ix.Step(r, pattern[i])
		if r.Empty() {
			return r, len(pattern) - i
		}
	}
	return r, len(pattern)
}

// LF maps a row to the row of the text position immediately to its left
// (last-first mapping). It must not be called on the sentinel row.
func (ix *Index) LF(row int) (int, error) {
	if row == ix.primary {
		return 0, errors.New("fmindex: LF on sentinel row")
	}
	sym := ix.BWTSymbol(row)
	return ix.cFull[sym] + ix.occFull(sym, row), nil
}

// BWTSymbol returns the BWT symbol of a non-sentinel row — the text symbol
// just before the row's suffix.
func (ix *Index) BWTSymbol(row int) uint8 {
	return ix.occ.Symbol(ix.compact(row))
}

// Locate returns the text positions of every row in r, unsorted. It uses
// the full suffix array when present (the paper's host-side lookup), else
// the sampled suffix array via LF walking, else an error.
func (ix *Index) Locate(r Range) ([]int32, error) {
	if r.Empty() {
		return nil, nil
	}
	return ix.LocateAppend(make([]int32, 0, r.Count()), r)
}

// LocateAppend appends the text positions of every row in r to dst and
// returns the extended slice, allocating only when dst's capacity runs out —
// the hot-path variant the batch mappers use with per-worker reusable
// buffers. An empty range returns dst unchanged.
func (ix *Index) LocateAppend(dst []int32, r Range) ([]int32, error) {
	if r.Empty() {
		return dst, nil
	}
	if r.Start < 0 || r.End > ix.n {
		return dst, fmt.Errorf("fmindex: range [%d,%d] outside rows [0,%d]", r.Start, r.End, ix.n)
	}
	if ix.sa != nil {
		return append(dst, ix.sa[r.Start:r.End+1]...), nil
	}
	if ix.sampled == nil {
		return dst, errors.New("fmindex: index built without locate support")
	}
	for row := r.Start; row <= r.End; row++ {
		pos, err := ix.locateOne(row)
		if err != nil {
			return dst, err
		}
		dst = append(dst, pos)
	}
	return dst, nil
}

func (ix *Index) locateOne(row int) (int32, error) {
	steps := int32(0)
	for !ix.sampled.marks.Bit(row) {
		next, err := ix.LF(row)
		if err != nil {
			return 0, err
		}
		row = next
		steps++
		if steps > int32(ix.n)+1 {
			return 0, errors.New("fmindex: locate walk did not terminate; index is corrupt")
		}
	}
	return ix.sampled.values[ix.sampled.marks.Rank1(row)] + steps, nil
}

// SizeBytes reports the footprint of the Occ structure plus whichever
// locate structure and prefix table are attached.
func (ix *Index) SizeBytes() int {
	size := ix.occ.SizeBytes() + len(ix.cFull)*8
	if ix.sa != nil {
		size += len(ix.sa) * 4
	}
	if ix.sampled != nil {
		size += ix.sampled.SizeBytes()
	}
	if ix.ftab != nil {
		size += ix.ftab.SizeBytes()
	}
	return size
}

// SampledSA stores every SampleRate-th suffix-array value (by text
// position), the standard FM-index sampling that trades locate time for
// space. The paper keeps the full SA on the host; this is the extension
// DESIGN.md lists for references beyond host memory.
type SampledSA struct {
	rate   int
	marks  *bitvec.Vector
	values []int32
}

// NewSampledSA samples sa (length n+1) at the given rate: rows whose suffix
// position is a multiple of rate are kept. Rate must be >= 1.
func NewSampledSA(sa []int32, rate int) (*SampledSA, error) {
	if rate < 1 {
		return nil, fmt.Errorf("fmindex: sample rate %d must be >= 1", rate)
	}
	b := bitvec.NewBuilder(len(sa))
	var values []int32
	for _, pos := range sa {
		if int(pos)%rate == 0 {
			b.Append(true)
			values = append(values, pos)
		} else {
			b.Append(false)
		}
	}
	return &SampledSA{rate: rate, marks: b.Build(), values: values}, nil
}

// SizeBytes returns the sampled structure's footprint.
func (s *SampledSA) SizeBytes() int { return s.marks.SizeBytes() + len(s.values)*4 }
