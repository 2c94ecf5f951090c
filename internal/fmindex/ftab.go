package fmindex

import (
	"fmt"
	"sync/atomic"
)

// Ftab is a dense k-mer prefix-lookup table over the 4-symbol DNA alphabet,
// the Bowtie/BWA-style optimisation the paper's backward search lacks: since
// the search consumes the pattern right to left, the first k steps — the
// widest intervals, with the worst rank locality — depend only on the
// pattern's length-k suffix, so they can be replaced by one table lookup.
//
// Every length-k string S maps to the exact Range the plain backward search
// returns when run on S alone. For a living k-mer that is [start(S), end(S)];
// for a k-mer on which the search dies early it is the precise empty range
// produced at the step where it died, [lb(y), lb(y)-1] for S's shortest
// absent suffix y (or Step's [1, 0] for a symbol the index lacks).
// SearchWithFtab is therefore bit-identical to Count on every input, with no
// re-search fallback: a dead lookup answers immediately, which is why
// unmapped reads get cheaper too, not just mapped ones.
//
// The table stores lower bounds, not intervals: bounds[S] is the number of
// matrix rows that sort below the k-mer S — the first row of its interval —
// and bounds[4^k] = n+1. Consecutive k-mers' intervals abut but for the text
// suffixes shorter than k, each of which sorts just below the first k-mer it
// is a prefix of (itself padded with A), so a k-mer's count is the next bound
// minus its own, less the short suffixes padded to the next k-mer. The table
// keeps them as the text's last k-1 symbols (shortTail), and derives death
// ranges from the bounds and the tail too, with no rank work.
//
// The table is built in O(4^k) total work by interval refinement: the bounds
// of sX come from one StepAll on X's interval, and children of absent X are
// filled from their right neighbour without any rank work. 4^k+1 int32 cost
// 4·4^k bytes — 4 MiB at the default k=10 — and a lookup reads two adjacent
// words, so it still misses once.
type Ftab struct {
	k, sigma int
	bounds   []int32
	tail     shortTail

	// Lookup counters, updated atomically by SearchWithFtab: hits answered
	// from the table, misses where an out-of-alphabet symbol in the suffix
	// forced a plain search, and short reads below k bases.
	hits, misses, short atomic.Uint64
}

// ftabFixedBytes is the table's footprint beside its bounds: order, alphabet
// and the tail's keys.
const ftabFixedBytes = 64

// ftab keys cover the fixed DNA alphabet: symbols in [4, 255] cannot be
// encoded and fall back to the plain search, while symbols in [sigma, 4) are
// handled by the table itself (they yield dead entries). An index over a
// larger alphabet gets no table: its suffixes holding such symbols would sit
// between the keys' intervals.
const ftabSigma = 4

// MaxFtabK bounds the table order: 4^12 bounds are 64 MiB, already past any
// on-chip budget; larger orders only burn host memory.
const MaxFtabK = 12

// shortTail is the text's suffixes shorter than a table's order: the suffix
// u (followed by the sentinel) sorts just below the first level-l string it
// is a prefix of, u padded with A to l symbols, so these are the rows a
// table of lower bounds cannot see. pads[j-1] is the text's last j symbols
// padded to MaxFtabK, for j up to n; a level-l key is compared padded the
// same way, which makes the pads one list for every level. mask has a bit
// per pad's hash, so most keys are ruled out without the list.
type shortTail struct {
	pads [MaxFtabK - 1]uint32
	n    int
	mask uint64
}

// padHash picks a pad's bit in shortTail.mask.
func padHash(pad uint32) uint64 { return 1 << (pad * 0x9e3779b1 >> 26) }

// below counts the tail's suffixes of at least from and fewer than l symbols
// that sort just below the level-l key: those whose padding is key.
func (t *shortTail) below(l int, key uint32, from int) int {
	pad := key << (2 * (MaxFtabK - l))
	if key&3 != 0 || t.mask&padHash(pad) == 0 {
		return 0 // every pad ends in A, and no pad has this hash
	}
	c := 0
	for j := from; j <= t.n && j < l; j++ {
		if t.pads[j-1] == pad {
			c++
		}
	}
	return c
}

// shortTail reads the text's last min(m, n) symbols by walking LF from the
// sentinel suffix's row, whose transform symbol is the text's last.
func (ix *Index) shortTail(m int) (shortTail, error) {
	var t shortTail
	row := 0
	for ; t.n < min(m, ix.n); t.n++ {
		sym, next, err := ix.LF(row)
		if err != nil {
			return t, err
		}
		// The j-symbol suffix is sym followed by the (j-1)-symbol one.
		t.pads[t.n] = uint32(sym) << (2 * (MaxFtabK - 1))
		if t.n > 0 {
			t.pads[t.n] |= t.pads[t.n-1] >> 2
		}
		t.mask |= padHash(t.pads[t.n])
		row = next
	}
	return t, nil
}

// FtabStats is a snapshot of the lookup counters.
type FtabStats struct {
	// Hits are lookups answered from the table (living or dead entry).
	Hits uint64 `json:"hits"`
	// Misses are lookups abandoned because the pattern's length-k suffix
	// contained a symbol outside the 4-symbol DNA alphabet.
	Misses uint64 `json:"misses"`
	// Short are patterns shorter than k, searched plainly.
	Short uint64 `json:"short"`
}

// K returns the table order.
func (f *Ftab) K() int { return f.k }

// Entries returns the number of k-mers covered (4^k).
func (f *Ftab) Entries() int { return len(f.bounds) - 1 }

// SizeBytes returns the table's footprint — the quantity the FPGA simulator
// charges against its BRAM capacity gate: 4·(4^k+1) bytes of bounds plus
// ftabFixedBytes.
func (f *Ftab) SizeBytes() int { return 4*len(f.bounds) + ftabFixedBytes }

// Stats snapshots the lookup counters.
func (f *Ftab) Stats() FtabStats {
	return FtabStats{Hits: f.hits.Load(), Misses: f.misses.Load(), Short: f.short.Load()}
}

// Lookup returns the range for a key in [0, 4^k): the big-endian base-4
// encoding of the k-mer (first symbol in the highest digit). A living
// k-mer's range is span(k, key), read here without span's generality: this
// is the search's hot path.
func (f *Ftab) Lookup(key int) Range {
	lo, hi := int(f.bounds[key]), int(f.bounds[key+1])-f.tail.below(f.k, uint32(key+1), 1)-1
	if lo <= hi {
		return Range{Start: lo, End: hi}
	}
	return f.death(key)
}

// span returns the rows prefixed by the l-symbol string with the given key,
// l <= k: the k-mers it prefixes, the short suffixes between them, and those
// below the first that it prefixes (the ones of at least l symbols). The end
// is one below the next string's first k-mer, less the short suffixes
// sorting there.
func (f *Ftab) span(l, key int) Range {
	next := (key + 1) << (2 * (f.k - l))
	return Range{
		Start: f.start(l, key),
		End:   int(f.bounds[next]) - f.tail.below(f.k, uint32(next), 1) - 1,
	}
}

// start is span(l, key).Start, reading one bound.
func (f *Ftab) start(l, key int) int {
	first := key << (2 * (f.k - l))
	return int(f.bounds[first]) - f.tail.below(f.k, uint32(first), l)
}

// death returns the range Count dies with on the absent k-mer key: it steps
// the suffixes from the shortest, and the first absent one, y, leaves
// [lb(y), lb(y)-1], where lb(y) is the start of y's (empty) span — or Step's
// [1, 0] when y starts with a symbol outside the index's alphabet.
func (f *Ftab) death(key int) Range {
	long := f.presentSuffix(f.k, key) + 1
	if key>>(2*(long-1))&3 >= f.sigma {
		return Range{Start: 1, End: 0}
	}
	start := f.start(long, key&(1<<(2*long)-1))
	return Range{Start: start, End: start - 1}
}

// presentSuffix returns the length of the longest suffix of the absent
// l-symbol string key that occurs in the text. Every suffix longer than an
// absent one contains it, so is absent too: the length is found by
// bisection.
func (f *Ftab) presentSuffix(l, key int) int {
	short, long := 0, l // the suffix of length short occurs, of length long not
	for long-short > 1 {
		if m := (short + long) / 2; f.span(m, key&(1<<(2*m)-1)).Empty() {
			long = m
		} else {
			short = m
		}
	}
	return short
}

// forEach calls fn with every k-mer's range in key order, as Lookup returns
// it, and stops at fn's first error. It derives the death ranges level by
// level — the extensions of an absent string die where it does — so the
// whole table costs O(4^k) spans rather than up to k per dead k-mer.
func (f *Ftab) forEach(fn func(key int, r Range) error) error {
	dead := []int32{0} // death start of each string of the level below; 0: present
	for l := 1; l <= f.k; l++ {
		width := len(dead)
		var next []int32
		if l < f.k {
			next = make([]int32, ftabSigma*width)
		}
		for c := range ftabSigma {
			for x, suffix := range dead {
				key := c*width + x
				var r Range
				switch {
				case suffix != 0:
					r = Range{Start: int(suffix), End: int(suffix) - 1}
				case c >= f.sigma:
					r = Range{Start: 1, End: 0}
				default:
					if r = f.span(l, key); r.Empty() {
						r.End = r.Start - 1
					}
				}
				if next == nil {
					if err := fn(key, r); err != nil {
						return err
					}
				} else if r.Empty() {
					next[key] = int32(r.Start)
				}
			}
		}
		dead = next
	}
	return nil
}

// BuildFtab constructs the order-k table for the index by interval
// refinement: the four depth d+1 bounds of sX come from one StepAll on X's
// depth-d interval — a StepAll gives an empty child's lower bound as well —
// and the children of an absent X are filled from their right neighbour in
// one sweep per level, with no rank work. Total StepAll calls are bounded by
// both 4^k/3 and k times the number of distinct k-mers in the text, so small
// references build small-alive tables fast even at high k. The refinement
// runs in place: level d lives in the table's last 4^d+1 entries (the last
// is every level's terminal, n+1), so the bound of 3X at depth d+1 is X's own
// slot, written after X and X+1 are read, and 0X…2X land below level d.
func (ix *Index) BuildFtab(k int) (*Ftab, error) {
	if k < 1 || k > MaxFtabK {
		return nil, fmt.Errorf("fmindex: ftab order %d outside [1,%d]", k, MaxFtabK)
	}
	if ix.sigma > ftabSigma {
		return nil, fmt.Errorf("fmindex: ftab keys cover %d symbols, index has %d", ftabSigma, ix.sigma)
	}
	tail, err := ix.shortTail(k - 1)
	if err != nil {
		return nil, err
	}
	f := &Ftab{k: k, sigma: ix.sigma, bounds: make([]int32, 1<<(2*k)+1), tail: tail}
	b := f.bounds
	b[len(b)-1] = int32(ix.n + 1)
	var stepped [ftabSigma]Range
	for d, width := 0, 1; width < len(b)-1; d, width = d+1, width*ftabSigma {
		cur := b[len(b)-1-width:]
		next := b[len(b)-1-width*ftabSigma:]
		for key := range width {
			lo := int(cur[key])
			hi := int(cur[key+1]) - f.tail.below(d, uint32(key+1), 1) - 1
			for s := range ftabSigma {
				next[s*width+key] = -1 // filled by the sweep below
			}
			if lo > hi {
				continue
			}
			ix.StepAll(Range{Start: lo, End: hi}, stepped[:ix.sigma])
			for s, r := range stepped[:ix.sigma] {
				next[s*width+key] = int32(r.Start)
			}
		}
		for key := width*ftabSigma - 1; key >= 0; key-- {
			if next[key] < 0 {
				next[key] = next[key+1] - int32(f.tail.below(d+1, uint32(key+1), 1))
			}
		}
	}
	return f, nil
}

// Ftab returns the attached prefix table, nil if none.
func (ix *Index) Ftab() *Ftab { return ix.ftab }

// SetFtab attaches a prefix table (nil detaches). The table must have been
// built over this index — a foreign table silently answers wrong ranges;
// ReadFtab checks a deserialized one against the index it is read for.
func (ix *Index) SetFtab(f *Ftab) { ix.ftab = f }

// SearchWithFtabSteps is Count accelerated by the attached prefix table;
// without one (or for reads shorter than k, or suffixes containing
// out-of-alphabet symbols) it is exactly Count. The returned range is
// bit-identical to Count's on every input — the property the fuzz test pins
// down. It also reports the modeled pipeline iterations: one for the table
// lookup (the BRAM LUT access that replaces the first k steps) plus one per
// subsequent Step, matching CountSteps' accounting on the fallback paths.
func (ix *Index) SearchWithFtabSteps(pattern []uint8) (Range, int) {
	f := ix.ftab
	if f == nil {
		return ix.CountSteps(pattern)
	}
	m := len(pattern)
	if m < f.k {
		f.short.Add(1)
		return ix.CountSteps(pattern)
	}
	key, ok := f.key(pattern)
	if !ok {
		f.misses.Add(1)
		return ix.CountSteps(pattern)
	}
	f.hits.Add(1)
	r := f.Lookup(key)
	steps := 1
	if r.Empty() {
		// The search died inside the suffix; the stored range is the exact
		// empty range Count's early exit would have returned.
		return r, steps
	}
	for i := m - f.k - 1; i >= 0; i-- {
		r = ix.Step(r, pattern[i])
		steps++
		if r.Empty() {
			return r, steps
		}
	}
	return r, steps
}

// key returns the table key of pattern's last k symbols, which it must
// hold, and false if one of them is outside the DNA alphabet.
func (f *Ftab) key(pattern []uint8) (int, bool) {
	key := 0
	for _, s := range pattern[len(pattern)-f.k:] {
		if s >= ftabSigma {
			return 0, false
		}
		key = key<<2 | int(s)
	}
	return key, true
}

// count adds a group's lookups to the counters, touching each only if the
// group has some: the counters sit on one line every worker shares.
func (f *Ftab) count(hits, misses, short uint64) {
	if hits > 0 {
		f.hits.Add(hits)
	}
	if misses > 0 {
		f.misses.Add(misses)
	}
	if short > 0 {
		f.short.Add(short)
	}
}
