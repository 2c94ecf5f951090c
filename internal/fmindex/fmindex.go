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
	"bwaver/internal/dna"
	"bwaver/internal/rrr"
	"bwaver/internal/wavelet"
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

	// text is the indexed text at two bits a symbol (optional). With it, a
	// grouped exact search whose interval has at most locateMax rows locates
	// them and compares the rest of its pattern with the text instead of
	// ranking: maxLocated rows with the full suffix array, trackedMax with a
	// sampled one, whose search ranks on until it has met a sample for each
	// row, and 0 — the ranked walk to the end — without the text or a locate
	// structure.
	text      dna.PackedSeq
	locateMax int
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
		for row, pos := range opts.SA {
			if pos < 0 || int(pos) > n {
				return nil, fmt.Errorf("fmindex: suffix array row %d holds %d, outside [0,%d]", row, pos, n)
			}
		}
		ix.sa = opts.SA
	}
	if opts.Sampled != nil {
		if err := opts.Sampled.check(n); err != nil {
			return nil, err
		}
		ix.sampled = opts.Sampled
	}
	return ix, nil
}

// StreamedBWT is the Burrows-Wheeler transform of a text as one pass over
// its suffix array leaves it for the index: the sentinel row, the symbol
// counts, the run count, and a wavelet builder holding every node's bits. The
// transform itself never exists: bwt.Transform and New, which keep it at one
// byte per symbol, are the reference this construction is tested against.
type StreamedBWT struct {
	Primary int
	Counts  []int
	Runs    int
	tree    *wavelet.Builder
}

// streamChunk is how many symbols of the transform exist at a time while
// StreamBWT feeds the wavelet builder.
const streamChunk = 64 << 10

// StreamBWT makes the transform's one pass: it counts the text's symbols,
// which size the wavelet nodes (the transform permutes the text), then walks
// sa feeding the builder text[sa[i]-1] row by row, streamChunk symbols at a
// time. Encode finishes the Occ structure; NewFromParts assembles the index.
func StreamBWT[E ~uint8](text []E, sa []int32, sigma int, params rrr.Params) (*StreamedBWT, error) {
	if sigma < 2 || sigma > 256 {
		return nil, fmt.Errorf("fmindex: alphabet size %d outside [2,256]", sigma)
	}
	var tally [256]int
	for _, c := range text {
		tally[c]++
	}
	for c := sigma; c < len(tally); c++ {
		if tally[c] > 0 {
			return nil, fmt.Errorf("fmindex: symbol %d outside alphabet [0,%d)", c, sigma)
		}
	}
	counts := make([]int, sigma)
	copy(counts, tally[:])
	tree, err := wavelet.NewBuilder(counts, params)
	if err != nil {
		return nil, err
	}
	buf := make([]uint8, min(streamChunk, len(text)+1))
	primary, runs, err := bwt.Stream(text, sa, buf, tree.Write)
	if err != nil {
		return nil, err
	}
	return &StreamedBWT{Primary: primary, Counts: counts, Runs: runs, tree: tree}, nil
}

// Encode encodes the wavelet nodes the pass filled, concurrently, into the
// paper's Occ structure.
func (s *StreamedBWT) Encode() (*WaveletOcc, error) {
	t, err := s.tree.Build()
	if err != nil {
		return nil, err
	}
	return &WaveletOcc{Tree: t}, nil
}

// SymbolCount returns the number of occurrences of sym in the text.
func (ix *Index) SymbolCount(sym uint8) int {
	if int(sym) >= ix.sigma {
		return 0
	}
	return ix.cFull[sym+1] - ix.cFull[sym]
}

// SetText attaches the text the index was built over, packed two bits a
// symbol, as SetFtab attaches a table; the zero PackedSeq detaches it. The
// text must be the index's own: a foreign one answers wrong counts. An
// alphabet larger than DNA's has no packed text.
func (ix *Index) SetText(t dna.PackedSeq) error {
	switch {
	case t.Len() == 0:
		ix.text, ix.locateMax = t, 0
		return nil
	case t.Len() != ix.n:
		return fmt.Errorf("fmindex: packed text of %d symbols for an index of %d", t.Len(), ix.n)
	case ix.sigma > ftabSigma:
		return fmt.Errorf("fmindex: no packed text for an alphabet of %d symbols", ix.sigma)
	}
	ix.text = t
	switch {
	case ix.sa != nil:
		ix.locateMax = maxLocated
	case ix.sampled != nil:
		ix.locateMax = trackedMax
	default:
		ix.locateMax = 0
	}
	return nil
}

// Text returns the attached packed text, the zero PackedSeq if none.
func (ix *Index) Text() dna.PackedSeq { return ix.text }

// TextBytes returns the attached packed text's footprint, 0 if none.
func (ix *Index) TextBytes() int { return 8 * len(ix.text.Words()) }

// Canonical returns the range SearchGroup reports for a pattern whose ranked
// backward search returns r: every empty range as [1, 0]; a range of at
// most locateMax rows as rows [0, c−1], since the grouped search finished on
// the text and does not know its final rows — no ranked search of a
// nonempty pattern returns row 0, which only the empty pattern's range
// holds; any other range as it is.
func (ix *Index) Canonical(r Range) Range {
	switch c := r.Count(); {
	case c == 0:
		return Range{Start: 1, End: 0}
	case c <= ix.locateMax:
		return Range{Start: 0, End: c - 1}
	}
	return r
}

// OnText reports whether r is the range of a search that finished on the
// text, whose positions its search group holds (LocateGroupAppend), rather
// than rows to locate. The empty pattern's range, all n+1 rows, is rows
// even where it has at most locateMax of them: no other range starts at
// row 0.
func (ix *Index) OnText(r Range) bool {
	return r.Start == 0 && r.End >= 0 && r.End < min(ix.locateMax, ix.n)
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
// dst[0:sigma]. Over the wavelet structure it resolves all sigma steps with
// one traversal that carries both interval endpoints: for DNA that is 3
// paired bit-vector ranks instead of the 16 single ones that four separate
// Step calls used to issue. The bidirectional extension step — the seeding
// hot loop, which needs every symbol's interval to maintain the mirror
// range — is built on it.
func (ix *Index) StepAll(r Range, dst []Range) {
	if ix.wocc == nil || ix.sigma > maxStepAllSigma {
		for b := 0; b < ix.sigma; b++ {
			dst[b] = ix.Step(r, uint8(b))
		}
		return
	}
	// Direct wavelet calls: devirtualized, so escape analysis keeps the
	// count buffers on the stack.
	var lo, hi [maxStepAllSigma]int
	ix.wocc.Tree.RankAllPair(ix.compact(r.Start), ix.compact(r.End+1), lo[:ix.sigma], hi[:ix.sigma])
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
// (last-first mapping) and returns the BWT symbol it steps over, the text
// symbol at that position. On the wavelet provider both come from one
// descent of the tree. It must not be called on the sentinel row.
func (ix *Index) LF(row int) (uint8, int, error) {
	if row == ix.primary {
		return 0, 0, errors.New("fmindex: LF on sentinel row")
	}
	sym, rank := ix.symbolRank(ix.compact(row))
	return sym, ix.cFull[sym] + rank, nil
}

// symbolRank returns the compact BWT's symbol at i and its Occ there.
func (ix *Index) symbolRank(i int) (uint8, int) {
	if ix.wocc != nil {
		return ix.wocc.Tree.AccessRank(i)
	}
	sym := ix.occ.Symbol(i)
	return sym, ix.occ.Occ(sym, i)
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
// buffers. An empty range returns dst unchanged. A range that finished on
// the text (OnText) holds no rows to locate: it is an error, and
// LocateGroupAppend reads its positions from its search's group.
func (ix *Index) LocateAppend(dst []int32, r Range) ([]int32, error) {
	if ix.OnText(r) {
		return dst, errOnText
	}
	return ix.locateAppend(dst, r)
}

var errOnText = errors.New("fmindex: range finished on the text: its positions are its search group's (LocateGroupAppend)")

// locateAppend is LocateAppend for a range of rows.
func (ix *Index) locateAppend(dst []int32, r Range) ([]int32, error) {
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
		return dst, errNoLocate
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

var (
	errNoLocate = errors.New("fmindex: index built without locate support")
	errOutside  = errors.New("fmindex: located position outside the text; index is corrupt")
)

// locateOne walks LF from row to the nearest sampled row. A valid index gets
// there within min(rate, n+1)−1 steps — every rate-th text position is
// sampled, position 0 among them — so a longer walk, or a position past the
// text, means the index is corrupt.
func (ix *Index) locateOne(row int) (int32, error) {
	s := ix.sampled
	limit := min(s.rate, ix.n+1) - 1
	for steps := 0; ; steps++ {
		if s.marks.Bit(row) {
			pos := int(s.values[s.marks.Rank1(row)]) + steps
			if uint(pos) > uint(ix.n) {
				return 0, errOutside
			}
			return int32(pos), nil
		}
		if steps == limit {
			return 0, errors.New("fmindex: locate walk found no sample; index is corrupt")
		}
		_, next, err := ix.LF(row)
		if err != nil {
			return 0, err
		}
		row = next
	}
}

// KnownPosition returns the text position of row when the index stores it,
// so that no LF walk is needed: every row with the full suffix array; the
// sampled rows, and row 0 (the sentinel suffix, position n), with a sampled
// one; row 0 alone on a count-only index — and in every mode the sentinel
// row, whose suffix is the whole text (position 0).
func (ix *Index) KnownPosition(row int) (int, bool) {
	switch {
	case ix.sa != nil:
		return int(ix.sa[row]), true
	case row == 0:
		return ix.n, true
	case row == ix.primary:
		return 0, true
	case ix.sampled != nil && ix.sampled.marks.Bit(row):
		return int(ix.sampled.values[ix.sampled.marks.Rank1(row)]), true
	}
	return 0, false
}

// KnownBelow returns the largest stored position below pos (0 < pos <= n),
// 0 when there is none: where an LF walk from pos's row first reaches a row
// KnownPosition answers for, or the sentinel row.
func (ix *Index) KnownBelow(pos int) int {
	switch {
	case ix.sa != nil:
		return pos - 1
	case ix.sampled != nil:
		return (pos - 1) / ix.sampled.rate * ix.sampled.rate
	}
	return 0
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
// space. The paper keeps the full SA on the host; the server keeps this one
// (DESIGN.md "What a served index holds").
type SampledSA struct {
	rate   int
	marks  *bitvec.Vector
	values []int32
}

// NewSampledSA samples sa (length n+1) at the given rate: rows whose suffix
// position is a multiple of rate are kept. Rate must be >= 1. A suffix array
// is a permutation of 0…n, so exactly ⌊n/rate⌋+1 rows are kept: the values
// are allocated once at that size and the marks built a word at a time, and
// an sa holding another count is refused.
func NewSampledSA(sa []int32, rate int) (*SampledSA, error) {
	if rate < 1 {
		return nil, fmt.Errorf("fmindex: sample rate %d must be >= 1", rate)
	}
	values := make([]int32, (len(sa)-1)/rate+1)
	marks := bitvec.NewBuilder(len(sa))
	k := 0
	for lo := 0; lo < len(sa); lo += 64 {
		chunk := sa[lo:min(lo+64, len(sa))]
		var word uint64
		for j, pos := range chunk {
			if int(pos)%rate != 0 {
				continue
			}
			if k == len(values) {
				return nil, fmt.Errorf("fmindex: more than %d suffix-array values are multiples of %d; not a suffix array", len(values), rate)
			}
			values[k] = pos
			k++
			word |= 1 << uint(j)
		}
		marks.AppendWord(word, len(chunk))
	}
	if k != len(values) {
		return nil, fmt.Errorf("fmindex: %d suffix-array values are multiples of %d, want %d; not a suffix array", k, rate, len(values))
	}
	return &SampledSA{rate: rate, marks: marks.Build(), values: values}, nil
}

// marked returns the marks of rows [row, row+c), c <= 32, row row+i's in
// bit i: one word of marks, or two.
func (s *SampledSA) marked(row, c int) uint32 {
	words, w, o := s.marks.Words(), row/64, uint(row%64)
	x := words[w] >> o
	if o+uint(c) > 64 {
		x |= words[w+1] << (64 - o)
	}
	return uint32(x) & (1<<c - 1)
}

// SizeBytes returns the sampled structure's footprint.
func (s *SampledSA) SizeBytes() int { return s.marks.SizeBytes() + len(s.values)*4 }

// check refuses a sampled array that cannot belong to a text of n symbols:
// one mark per row, one value per mark and ⌊n/rate⌋+1 of them, each a
// multiple of the rate inside [0, n].
func (s *SampledSA) check(n int) error {
	if s.marks.Len() != n+1 {
		return fmt.Errorf("fmindex: sampled SA marks %d rows, the text has %d", s.marks.Len(), n+1)
	}
	if want := n/s.rate + 1; len(s.values) != want || s.marks.Ones() != want {
		return fmt.Errorf("fmindex: sampled SA has %d values and %d marks at rate %d, want %d", len(s.values), s.marks.Ones(), s.rate, want)
	}
	for _, v := range s.values {
		if v < 0 || int(v) > n || int(v)%s.rate != 0 {
			return fmt.Errorf("fmindex: sampled SA value %d is not a multiple of %d in [0,%d]", v, s.rate, n)
		}
	}
	return nil
}
