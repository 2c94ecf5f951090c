package fmindex

import (
	"math/bits"

	"bwaver/internal/dna"
)

// textView is the text a BiIndex was built over, in the caller's own
// element type, so that the index shares the caller's array instead of
// copying it.
type textView interface {
	// keepBefore returns, in order, the positions p of h whose preceding
	// symbol is a, each moved to p-1.
	keepBefore(h hits, a uint8) hits
	// keepAt returns, in order, the positions p of h whose symbol at p+off
	// is a.
	keepAt(h hits, off int, a uint8) hits
	// commonSuffix returns how many symbols text[:p] and pattern have in
	// common at their ends.
	commonSuffix(p int, pattern []uint8) int
	// commonPrefix returns how many symbols text[p:] and pattern have in
	// common at their starts.
	commonPrefix(p int, pattern []uint8) int
}

type textOf[E ~uint8] []E

func (t textOf[E]) keepBefore(h hits, a uint8) hits {
	var kept hits
	for _, p := range h.pos[:h.n] {
		if p > 0 && uint8(t[p-1]) == a {
			kept.pos[kept.n] = p - 1
			kept.n++
		}
	}
	return kept
}

func (t textOf[E]) keepAt(h hits, off int, a uint8) hits {
	var kept hits
	for _, p := range h.pos[:h.n] {
		if q := int(p) + off; q < len(t) && uint8(t[q]) == a {
			kept.pos[kept.n] = p
			kept.n++
		}
	}
	return kept
}

func (t textOf[E]) commonSuffix(p int, pattern []uint8) int {
	before, n := t[:p], 0
	for n < len(before) && n < len(pattern) && uint8(before[len(before)-1-n]) == pattern[len(pattern)-1-n] {
		n++
	}
	return n
}

// commonPrefix takes p up to the text's end: a corrupt sampled suffix array
// can locate a match too close to it, and must not make the search panic.
func (t textOf[E]) commonPrefix(p int, pattern []uint8) int {
	after, n := t[min(p, len(t)):], 0
	for n < len(after) && n < len(pattern) && uint8(after[n]) == pattern[n] {
		n++
	}
	return n
}

// packedText is the words of an index's own text at two bits a symbol, as
// dna.PackedSeq lays them out: symbol i in bits 2(i mod 32) of word i/32.
// The grouped exact search compares the rest of a pattern with it once the
// pattern's interval has at most locateMax rows (exactGroup.finish).
type packedText []uint64

// before returns the 32 symbols that end at position p (0 <= p <= n) in one
// word, the symbol at p-1-j in bits 62-2j: text[p-32:p] in the layout's
// order, with zeros below where the text starts.
func (t packedText) before(p int) uint64 {
	lo := p - dna.BasesPerWord
	if lo < 0 {
		if p == 0 {
			return 0
		}
		return t[0] << uint(2*(dna.BasesPerWord-p))
	}
	w, o := lo/dna.BasesPerWord, uint(2*(lo%dna.BasesPerWord))
	x := t[w] >> o
	if o > 0 {
		// p-1 lies in word w+1, so that word exists.
		x |= t[w+1] << (64 - o)
	}
	return x
}

// commonSuffix returns how many symbols text[:p] and pattern have in common
// at their ends, as textView's does, 32 symbols a comparison.
func (t packedText) commonSuffix(p int, pattern []uint8) int {
	for matched := 0; ; {
		want, c := pack(pattern[:len(pattern)-matched])
		n := t.common(p-matched, want, c)
		if matched += n; n < dna.BasesPerWord {
			return matched
		}
	}
}

// pack packs the last symbols of pattern, up to 32, into the layout of
// before's word and returns them with their count. A symbol outside the DNA
// alphabet ends them, as it ends a backward search: it must not be masked
// onto a base.
func pack(pattern []uint8) (uint64, int) {
	var want uint64
	m := len(pattern)
	for j := range min(dna.BasesPerWord, m) {
		s := pattern[m-1-j]
		if s >= ftabSigma {
			return want, j
		}
		want |= uint64(s) << uint(62-2*j)
	}
	return want, min(dna.BasesPerWord, m)
}

// common returns how many of the c symbols pack left in want text[:p] ends
// with: the XOR's leading zeros give the first difference.
func (t packedText) common(p int, want uint64, c int) int {
	c = min(c, p)
	if d := (t.before(p) ^ want) & (^uint64(0) << uint(64-2*c)); d != 0 {
		return bits.LeadingZeros64(d) / 2
	}
	return c
}
