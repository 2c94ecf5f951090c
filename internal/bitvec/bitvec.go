// Package bitvec implements a plain (uncompressed) bit-vector with constant
// time rank.
//
// Rank here costs one superblock lookup, one block lookup, and one popcount,
// at a space cost of n + o(n) bits with no compression. It backs the row
// marks of fmindex's sampled suffix array (SampledSA), which asks whether a
// row is sampled and how many sampled rows precede it; the wavelet tree's
// nodes are the paper's RRR structure (internal/rrr).
package bitvec

import (
	"fmt"
	"math/bits"
)

const (
	wordBits = 64
	// rank directory geometry: a 32-bit block count every blockWords words,
	// and a 64-bit running total every superWords words.
	blockWords = 8 // 512-bit blocks, matching the burst width the paper uses
	superWords = 1024
)

// Vector is an immutable bit-vector with a rank directory.
// Build one with a Builder, then query it concurrently from any number of
// goroutines.
type Vector struct {
	words []uint64
	n     int

	// super[i] = number of 1s before word i*superWords.
	super []uint64
	// block[i] = number of 1s between the enclosing superblock boundary and
	// word i*blockWords.
	block []uint32

	ones int
}

// Builder accumulates bits for a Vector.
type Builder struct {
	words []uint64
	n     int
}

// NewBuilder returns a Builder with capacity for n bits pre-allocated.
func NewBuilder(n int) *Builder {
	return &Builder{words: make([]uint64, 0, (n+wordBits-1)/wordBits)}
}

// AppendWord adds the low nbits bits of w (nbits <= 64), LSB first, with one
// or two word writes.
func (b *Builder) AppendWord(w uint64, nbits int) {
	if nbits <= 0 {
		return
	}
	if nbits < wordBits {
		w &= 1<<uint(nbits) - 1
	}
	if off := uint(b.n % wordBits); off == 0 {
		b.words = append(b.words, w)
	} else {
		b.words[len(b.words)-1] |= w << off
		if off+uint(nbits) > wordBits {
			b.words = append(b.words, w>>(wordBits-off))
		}
	}
	b.n += nbits
}

// Build freezes the builder into a queryable Vector. The builder may be
// reused afterwards only by starting from scratch.
func (b *Builder) Build() *Vector {
	v := &Vector{words: b.words, n: b.n}
	v.buildDirectory()
	return v
}

func (v *Vector) buildDirectory() {
	nw := len(v.words)
	v.super = make([]uint64, nw/superWords+1)
	v.block = make([]uint32, nw/blockWords+1)
	var total uint64
	var sinceSuper uint32
	for i := 0; i < nw; i++ {
		if i%superWords == 0 {
			v.super[i/superWords] = total
			sinceSuper = 0
		}
		if i%blockWords == 0 {
			v.block[i/blockWords] = sinceSuper
		}
		c := uint32(bits.OnesCount64(v.words[i]))
		total += uint64(c)
		sinceSuper += c
	}
	// Fill the boundary entries that fall exactly at the end of the vector
	// so Rank1(Len()) never reads an uninitialized count.
	if nw%superWords == 0 {
		v.super[nw/superWords] = total
		sinceSuper = 0
	}
	if nw%blockWords == 0 {
		v.block[nw/blockWords] = sinceSuper
	}
	v.ones = int(total)
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Ones returns the total number of set bits.
func (v *Vector) Ones() int { return v.ones }

// Bit returns the i-th bit.
func (v *Vector) Bit(i int) bool {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
	return v.words[i/wordBits]>>uint(i%wordBits)&1 == 1
}

// Rank1 returns the number of 1 bits in positions [0, i), i.e. strictly
// before position i. Rank1(Len()) equals Ones(). This prefix-exclusive
// convention matches Algorithm 1 of the paper once positions are shifted
// to zero-based.
func (v *Vector) Rank1(i int) int {
	if i < 0 || i > v.n {
		panic(fmt.Sprintf("bitvec: rank position %d out of range [0,%d]", i, v.n))
	}
	w := i / wordBits
	r := v.super[w/superWords] + uint64(v.block[w/blockWords])
	for j := w / blockWords * blockWords; j < w; j++ {
		r += uint64(bits.OnesCount64(v.words[j]))
	}
	if rem := uint(i % wordBits); rem != 0 {
		r += uint64(bits.OnesCount64(v.words[w] & (1<<rem - 1)))
	}
	return int(r)
}

// SizeBytes returns the memory footprint of the vector including its rank
// directory, used by the space-accounting benches.
func (v *Vector) SizeBytes() int {
	return len(v.words)*8 + len(v.super)*8 + len(v.block)*4 + 16
}

// Words exposes the raw backing words (read-only by convention).
func (v *Vector) Words() []uint64 { return v.words }
