// Package dna provides the nucleotide alphabet used throughout BWaveR:
// 2-bit base codes, packed sequences, reverse complements, and validation.
//
// BWaveR maps reads over the four-letter DNA alphabet {A, C, G, T}. The
// paper's succinct structure is optimised for alphabets of 2^N symbols with
// N >= 2, and the sentinel '$' used by the Burrows-Wheeler transform is kept
// outside the alphabet (its position is tracked separately by the wavelet
// tree), so this package deliberately has no code for '$'.
package dna

import (
	"fmt"
	"slices"
	"strings"
)

// Base is a 2-bit nucleotide code. The codes are in lexicographic order so
// that sorting packed sequences matches sorting their ASCII spellings, which
// the FM-index C-array computation relies on.
type Base uint8

const (
	A Base = 0
	C Base = 1
	G Base = 2
	T Base = 3

	// AlphabetSize is the number of distinct bases.
	AlphabetSize = 4
)

// Alphabet is the DNA alphabet in lexicographic order.
var Alphabet = [AlphabetSize]byte{'A', 'C', 'G', 'T'}

// baseFromASCII maps ASCII bytes to base codes; 0xFF marks invalid bytes.
var baseFromASCII [256]uint8

func init() {
	for i := range baseFromASCII {
		baseFromASCII[i] = 0xFF
	}
	for code, b := range Alphabet {
		baseFromASCII[b] = uint8(code)
		baseFromASCII[b+'a'-'A'] = uint8(code)
	}
	// RNA uracil maps to T, as the paper's alphabet {A,C,G,T||U} allows.
	baseFromASCII['U'] = uint8(T)
	baseFromASCII['u'] = uint8(T)
}

// FromByte converts an ASCII nucleotide to its 2-bit code.
// It accepts upper- and lower-case letters and maps U to T.
func FromByte(b byte) (Base, bool) {
	v := baseFromASCII[b]
	if v == 0xFF {
		return 0, false
	}
	return Base(v), true
}

// Byte returns the upper-case ASCII spelling of b.
func (b Base) Byte() byte { return Alphabet[b&3] }

// Complement returns the Watson-Crick complement of b (A<->T, C<->G).
// With the code assignment above this is simply 3-b.
func (b Base) Complement() Base { return 3 - (b & 3) }

// String implements fmt.Stringer.
func (b Base) String() string { return string(b.Byte()) }

// Seq is an unpacked DNA sequence, one Base per element. It is the working
// representation for BWT construction and searching; PackedSeq is the
// transport representation used by the FPGA query records.
type Seq []Base

// ParseSeq converts an ASCII string to a Seq, rejecting any byte that is not
// a nucleotide letter. Use Sanitize to replace invalid bytes instead.
func ParseSeq(s string) (Seq, error) {
	out := make(Seq, len(s))
	for i := 0; i < len(s); i++ {
		b, ok := FromByte(s[i])
		if !ok {
			return nil, fmt.Errorf("dna: invalid nucleotide %q at position %d", s[i], i)
		}
		out[i] = b
	}
	return out, nil
}

// MustParseSeq is ParseSeq for constant inputs in tests and examples;
// it panics on invalid input.
func MustParseSeq(s string) Seq {
	seq, err := ParseSeq(s)
	if err != nil {
		panic(err)
	}
	return seq
}

// Sanitize converts ASCII to a Seq, replacing every non-nucleotide byte
// (such as the ambiguity code 'N', common in reference FASTA files) with the
// given filler base. It reports how many bytes were replaced.
func Sanitize(s []byte, filler Base) (Seq, int) {
	return AppendSanitized(make(Seq, 0, len(s)), s, filler)
}

// AppendSanitized is Sanitize appending to dst, for callers that assemble one
// sequence from several records.
func AppendSanitized(dst Seq, s []byte, filler Base) (Seq, int) {
	n := len(dst)
	dst = slices.Grow(dst, len(s))[:n+len(s)]
	replaced := 0
	for i, raw := range s {
		b, ok := FromByte(raw)
		if !ok {
			b = filler
			replaced++
		}
		dst[n+i] = b
	}
	return dst, replaced
}

// String returns the ASCII spelling of the sequence.
func (s Seq) String() string {
	var sb strings.Builder
	sb.Grow(len(s))
	for _, b := range s {
		sb.WriteByte(b.Byte())
	}
	return sb.String()
}

// ReverseComplement returns the reverse complement of s as a new sequence.
// Mapping a read X and its reverse complement RC(X) in the same kernel pass
// is a core feature of the paper's architecture (§III-C).
func (s Seq) ReverseComplement() Seq {
	out := make(Seq, len(s))
	for i, b := range s {
		out[len(s)-1-i] = b.Complement()
	}
	return out
}

// ReverseComplementInto is ReverseComplement writing into dst's backing
// array (grown only when its capacity is short) — the allocation-free
// variant batch mappers use with per-worker reusable buffers.
func (s Seq) ReverseComplementInto(dst Seq) Seq {
	if cap(dst) < len(s) {
		dst = make(Seq, len(s))
	} else {
		dst = dst[:len(s)]
	}
	for i, b := range s {
		dst[len(s)-1-i] = b.Complement()
	}
	return dst
}

// Equal reports whether two sequences have identical bases.
func (s Seq) Equal(t Seq) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of s.
func (s Seq) Clone() Seq {
	out := make(Seq, len(s))
	copy(out, s)
	return out
}

// Count returns the number of occurrences of base b in s.
func (s Seq) Count(b Base) int {
	n := 0
	for _, x := range s {
		if x == b {
			n++
		}
	}
	return n
}

// GC returns the fraction of G and C bases in s, or 0 for an empty sequence.
func (s Seq) GC() float64 {
	if len(s) == 0 {
		return 0
	}
	return float64(s.Count(C)+s.Count(G)) / float64(len(s))
}
