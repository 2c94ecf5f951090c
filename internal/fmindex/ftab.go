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
// for a k-mer on which the search dies early the entry holds the precise
// empty range produced at the step where it died (death ranges propagate
// down the refinement unchanged, exactly as Count's early exit would return
// them). SearchWithFtab is therefore bit-identical to Count on every input,
// with no re-search fallback: a dead lookup answers immediately, which is
// why unmapped reads get cheaper too, not just mapped ones.
//
// The table is built in O(4^k) total work by interval refinement: the entry
// for sX is one Step (two rank queries) from the entry for X, and dead
// entries are copied, never stepped. 4^k entries of two int32 each cost
// 8·4^k bytes — 8 MiB at the default k=10 — and a range's two ends share a
// cache line, so a lookup misses once.
type Ftab struct {
	k       int
	entries []ftabEntry

	// Lookup counters, updated atomically by SearchWithFtab: hits answered
	// from the table, misses where an out-of-alphabet symbol in the suffix
	// forced a plain search, and short reads below k bases.
	hits, misses, short atomic.Uint64
}

// ftabEntry is one stored range.
type ftabEntry struct{ lo, hi int32 }

// ftab keys cover the fixed DNA alphabet, independent of the index's sigma;
// symbols in [4, 255] cannot be encoded and fall back to the plain search,
// while symbols in [sigma, 4) are handled by the table itself because the
// build uses the same Step semantics (they yield dead entries).
const ftabSigma = 4

// MaxFtabK bounds the table order: 4^12 entries are 134 MiB, already past
// any on-chip budget; larger orders only burn host memory.
const MaxFtabK = 12

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
func (f *Ftab) Entries() int { return len(f.entries) }

// SizeBytes returns the table's footprint — the quantity the FPGA simulator
// charges against its BRAM capacity gate.
func (f *Ftab) SizeBytes() int { return len(f.entries)*8 + 16 }

// Stats snapshots the lookup counters.
func (f *Ftab) Stats() FtabStats {
	return FtabStats{Hits: f.hits.Load(), Misses: f.misses.Load(), Short: f.short.Load()}
}

// Lookup returns the stored range for a key in [0, 4^k): the big-endian
// base-4 encoding of the k-mer (first symbol in the highest digit).
func (f *Ftab) Lookup(key int) Range {
	e := f.entries[key]
	return Range{Start: int(e.lo), End: int(e.hi)}
}

// Validate checks every stored range against the index length n, the same
// defensive posture the index deserializer takes: a corrupted table must not
// become out-of-bounds rank queries.
func (f *Ftab) Validate(n int) error {
	if f.k < 1 || f.k > MaxFtabK {
		return fmt.Errorf("fmindex: ftab order %d outside [1,%d]", f.k, MaxFtabK)
	}
	if want := 1 << (2 * f.k); len(f.entries) != want {
		return fmt.Errorf("fmindex: ftab has %d entries, want %d", len(f.entries), want)
	}
	for i, e := range f.entries {
		lo, hi := int(e.lo), int(e.hi)
		if lo < 0 || lo > n+1 || hi < -1 || hi > n || hi-lo+1 > n+1 {
			return fmt.Errorf("fmindex: ftab entry %d holds range [%d,%d] outside rows [0,%d]", i, lo, hi, n)
		}
	}
	return nil
}

// BuildFtab constructs the order-k table for the index by interval
// refinement: the four depth d+1 entries sX come from one StepAll on their
// depth-d parent X, dead parents propagate their death range to all children
// without any rank work. Total StepAll calls are bounded by both 4^k/3 and k
// times the number of distinct k-mers in the text, so small references build
// small-alive tables fast even at high k. The refinement runs in place: level
// d lives in the table's last 4^d entries, so the entry 3X of level d+1 is
// X's own slot, written after X is read, and 0X…2X land below level d.
func (ix *Index) BuildFtab(k int) (*Ftab, error) {
	if k < 1 || k > MaxFtabK {
		return nil, fmt.Errorf("fmindex: ftab order %d outside [1,%d]", k, MaxFtabK)
	}
	f := &Ftab{k: k, entries: make([]ftabEntry, 1<<(2*k))}
	all := ix.All()
	f.entries[len(f.entries)-1] = ftabEntry{lo: int32(all.Start), hi: int32(all.End)}
	// StepAll fills stepped[:sigma]; symbols the index lacks, [sigma, 4), keep
	// the empty range Step gives them.
	stepped := make([]Range, max(ix.sigma, ftabSigma))
	for s := ix.sigma; s < ftabSigma; s++ {
		stepped[s] = Range{Start: 1, End: 0}
	}
	for width := 1; width < len(f.entries); width *= ftabSigma {
		cur := f.entries[len(f.entries)-width:]
		next := f.entries[len(f.entries)-width*ftabSigma:]
		for key, e := range cur {
			r := Range{Start: int(e.lo), End: int(e.hi)}
			if r.Empty() {
				for s := 0; s < ftabSigma; s++ {
					next[s*width+key] = e
				}
				continue
			}
			ix.StepAll(r, stepped)
			for s := 0; s < ftabSigma; s++ {
				next[s*width+key] = ftabEntry{lo: int32(stepped[s].Start), hi: int32(stepped[s].End)}
			}
		}
	}
	return f, nil
}

// Ftab returns the attached prefix table, nil if none.
func (ix *Index) Ftab() *Ftab { return ix.ftab }

// SetFtab attaches a prefix table (nil detaches). The table must have been
// built over this index — a foreign table silently answers wrong ranges, so
// callers deserializing one should Validate it first.
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
	key := 0
	for _, s := range pattern[m-f.k:] {
		if s >= ftabSigma {
			f.misses.Add(1)
			return ix.CountSteps(pattern)
		}
		key = key<<2 | int(s)
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
