package dna

import (
	"fmt"
	"slices"
)

// PackedSeq stores a DNA sequence at 2 bits per base, 32 bases per uint64
// word, base i in bits [2i%64, 2i%64+2) of word i/32. This is the layout the
// FPGA query record uses (paper §III-C: a 512-bit record holds a read of up
// to 176 bases plus metadata), and also the transport format for serialized
// references.
type PackedSeq struct {
	words []uint64
	n     int
}

// BasesPerWord is the number of 2-bit bases in one 64-bit word.
const BasesPerWord = 32

// Pack converts an unpacked sequence, or symbols of any byte type, to its
// 2-bit representation, a word at a time; a symbol keeps its low two bits.
func Pack[E ~uint8](s []E) PackedSeq {
	words := make([]uint64, (len(s)+BasesPerWord-1)/BasesPerWord)
	for w := range words {
		var word uint64
		for j, b := range s[w*BasesPerWord : min(len(s), (w+1)*BasesPerWord)] {
			word |= uint64(b&3) << uint(2*j)
		}
		words[w] = word
	}
	return PackedSeq{words: words, n: len(s)}
}

// NewPackedSeq returns an all-A packed sequence of length n.
func NewPackedSeq(n int) PackedSeq {
	return PackedSeq{words: make([]uint64, (n+BasesPerWord-1)/BasesPerWord), n: n}
}

// Len returns the number of bases.
func (p PackedSeq) Len() int { return p.n }

// Words exposes the raw 64-bit words, for serialization and for the FPGA
// record builder. The last word's unused high bits are zero.
func (p PackedSeq) Words() []uint64 { return p.words }

// Base returns the i-th base.
func (p PackedSeq) Base(i int) Base {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("dna: packed index %d out of range [0,%d)", i, p.n))
	}
	return Base((p.words[i/BasesPerWord] >> uint((i%BasesPerWord)*2)) & 3)
}

// SetBase sets the i-th base.
func (p PackedSeq) SetBase(i int, b Base) {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("dna: packed index %d out of range [0,%d)", i, p.n))
	}
	shift := uint((i % BasesPerWord) * 2)
	w := &p.words[i/BasesPerWord]
	*w = (*w &^ (3 << shift)) | uint64(b&3)<<shift
}

// Unpack converts back to an unpacked sequence, a word at a time.
func (p PackedSeq) Unpack() Seq { return p.UnpackRange(make(Seq, p.n), 0, p.n) }

// UnpackRange returns bases [lo, hi) unpacked, a word at a time, into dst's
// storage, which it replaces with a larger one when it is too small.
func (p PackedSeq) UnpackRange(dst Seq, lo, hi int) Seq {
	if lo < 0 || hi > p.n || lo > hi {
		panic(fmt.Sprintf("dna: packed range [%d,%d) out of range [0,%d)", lo, hi, p.n))
	}
	dst = slices.Grow(dst[:0], hi-lo)[:hi-lo]
	for i := lo; i < hi; i = (i/BasesPerWord + 1) * BasesPerWord {
		word := p.words[i/BasesPerWord] >> uint(2*(i%BasesPerWord))
		d := dst[i-lo : min(hi, (i/BasesPerWord+1)*BasesPerWord)-lo]
		for j := range d {
			d[j] = Base(word & 3)
			word >>= 2
		}
	}
	return dst
}

// FromWords reconstructs a PackedSeq from raw words; n is the base count.
// It validates that the word slice is exactly the required length and that
// trailing bits are zero, so corrupted serialized data is caught early.
func FromWords(words []uint64, n int) (PackedSeq, error) {
	need := (n + BasesPerWord - 1) / BasesPerWord
	if len(words) != need {
		return PackedSeq{}, fmt.Errorf("dna: packed sequence of %d bases needs %d words, got %d", n, need, len(words))
	}
	if rem := n % BasesPerWord; rem != 0 && need > 0 {
		if words[need-1]>>(uint(rem)*2) != 0 {
			return PackedSeq{}, fmt.Errorf("dna: packed sequence has nonzero bits beyond base %d", n)
		}
	}
	return PackedSeq{words: words, n: n}, nil
}
