package fmindex

import (
	"encoding/binary"
	"math/bits"

	"bwaver/internal/dna"
)

// packedText is the words of an index's own text at two bits a symbol, as
// dna.PackedSeq lays them out: symbol i in bits 2(i mod 32) of word i/32.
// The grouped exact search compares the rest of a pattern with it once the
// pattern's interval has at most locateMax rows (exactGroup.finish), and
// the SMEM search once a match has at most BiIndex.locateMax occurrences.
type packedText []uint64

// at returns the symbol at position i.
func (t packedText) at(i int) uint8 {
	return uint8(t[uint(i)/dna.BasesPerWord] >> (uint(i) % dna.BasesPerWord * 2) & 3)
}

// keepBefore returns, in order, the positions p of h whose preceding symbol
// is a, each moved to p-1: one independent load an occurrence.
func (t packedText) keepBefore(h hits, a uint8) hits {
	var kept hits
	for _, p := range h.pos[:h.n] {
		if p > 0 && t.at(int(p)-1) == a {
			kept.pos[kept.n] = p - 1
			kept.n++
		}
	}
	return kept
}

// keepAt returns, in order, the positions p of h whose symbol at p+off,
// short of the text's end n, is a.
func (t packedText) keepAt(h hits, off, n int, a uint8) hits {
	var kept hits
	for _, p := range h.pos[:h.n] {
		if q := int(p) + off; q < n && t.at(q) == a {
			kept.pos[kept.n] = p
			kept.n++
		}
	}
	return kept
}

// commonSuffix returns how many symbols text[:p] and pattern have in common
// at their ends, compared 32 at a time.
func (t packedText) commonSuffix(p int, pattern []uint8) int {
	for n := 0; ; {
		want, c := pack(pattern[:len(pattern)-n])
		k := common(t.before(p-n), want, min(c, p-n))
		if n += k; k < dna.BasesPerWord {
			return n
		}
	}
}

// commonPrefix returns how many symbols text[p:n] and pattern have in common
// at their starts, compared 32 at a time: before's word of the 32 symbols
// from p+l on, or of the text's last 32 shifted down to start there, against
// the pattern's next symbols packed in its layout. A p past n, which a
// corrupt sampled suffix array can locate, has none rather than making the
// search panic.
func (t packedText) commonPrefix(p, n int, pattern []uint8) int {
	l := 0
	for p+l < n && l < len(pattern) {
		want, c := packFront(pattern[l:])
		c = min(c, n-p-l)
		e := min(p+l+dna.BasesPerWord, n)
		x := t.before(e) >> uint(2*(p+l+dna.BasesPerWord-e))
		if d := (x ^ want) & (uint64(1)<<uint(2*c) - 1); d != 0 {
			return l + bits.TrailingZeros64(d)/2
		}
		if l += c; c < dna.BasesPerWord {
			break
		}
	}
	return l
}

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

// common returns how many of the last c symbols of two of before's words,
// c <= 32, are equal: the XOR's leading zeros give the first difference.
func common(text, pattern uint64, c int) int {
	if d := (text ^ pattern) & (^uint64(0) << uint(64-2*c)); d != 0 {
		return bits.LeadingZeros64(d) / 2
	}
	return c
}

// pack packs the last symbols of pattern, up to 32, into the layout of
// before's word and returns them with their count. A symbol outside the DNA
// alphabet ends them, as it ends a backward search: it is packed as its low
// two bits, but the count leaves it, and everything before it, out. From 32
// symbols on they are read eight to a word (fold).
func pack(pattern []uint8) (uint64, int) {
	m := len(pattern)
	if m < dna.BasesPerWord {
		var want uint64
		for j := range m {
			s := pattern[m-1-j]
			if s >= ftabSigma {
				return want, j
			}
			want |= uint64(s) << uint(62-2*j)
		}
		return want, m
	}
	// Symbol i of the last 32 lands in bits 2i: the symbol 31-i from the
	// end, in bits 62-2(31-i).
	s := pattern[m-dna.BasesPerWord:]
	x0, x1 := binary.LittleEndian.Uint64(s), binary.LittleEndian.Uint64(s[8:])
	x2, x3 := binary.LittleEndian.Uint64(s[16:]), binary.LittleEndian.Uint64(s[24:])
	want := fold(x0) | fold(x1)<<16 | fold(x2)<<32 | fold(x3)<<48
	if (x0|x1|x2|x3)&0xfcfcfcfcfcfcfcfc != 0 {
		j := dna.BasesPerWord - 1
		for s[j] < ftabSigma {
			j--
		}
		return want, dna.BasesPerWord - 1 - j
	}
	return want, dna.BasesPerWord
}

// packFront is pack from the front: the first symbols of pattern, up to 32
// and up to the first outside the DNA alphabet, symbol i in bits 2i, and
// their count — pack's word of them, which ends at bit 63, shifted down.
func packFront(pattern []uint8) (uint64, int) {
	m := min(len(pattern), dna.BasesPerWord)
	want, c := pack(pattern[:m])
	if c < m {
		for m = 0; pattern[m] < ftabSigma; m++ {
		}
		want, _ = pack(pattern[:m])
	}
	return want >> uint(64-2*m), m
}

// fold gathers the low two bits of a word's eight bytes into its low 16
// bits, byte k's in bits 2k: two bits a byte, then pairs, fours and eights
// of them side by side.
func fold(x uint64) uint64 {
	x &= 0x0303030303030303
	x = (x | x>>6) & 0x000f000f000f000f
	x = (x | x>>12) & 0x000000ff000000ff
	return (x | x>>24) & 0xffff
}

// patternWords are a pattern's words for comparisons leftwards from its
// end, each packed once, when a comparison first needs it: word k is
// pack(pattern[:len(pattern)-32k]), up to the first word of fewer than 32
// symbols, where every comparison ends.
type patternWords struct {
	pattern []uint8
	words   []uint64
	counts  []int
}

// reset starts w on pattern, keeping its storage.
func (w *patternWords) reset(pattern []uint8) {
	w.pattern, w.words, w.counts = pattern, w.words[:0], w.counts[:0]
}

// word returns word k and its count.
func (w *patternWords) word(k int) (uint64, int) {
	for len(w.words) <= k {
		x, c := pack(w.pattern[:len(w.pattern)-dna.BasesPerWord*len(w.words)])
		w.words, w.counts = append(w.words, x), append(w.counts, c)
	}
	return w.words[k], w.counts[k]
}
