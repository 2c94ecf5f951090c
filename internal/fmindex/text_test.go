package fmindex

import (
	"math/rand"
	"testing"

	"bwaver/internal/dna"
)

// packBytes is pack one symbol at a time, as the grouped exact search
// packed before it read eight symbols a word.
func packBytes(pattern []uint8) (uint64, int) {
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

// TestPackMatchesPackBytes holds pack, at every length from 0 to 70 with
// every byte value at every position, to packBytes at every end: the same
// count, and the same symbols within it.
func TestPackMatchesPackBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(pattern []uint8) {
		t.Helper()
		for end := range len(pattern) + 1 {
			got, c := pack(pattern[:end])
			want, wantC := packBytes(pattern[:end])
			if mask := ^uint64(0) << uint(64-2*c); c != wantC || got&mask != want {
				t.Fatalf("%v up to %d: %#x (%d symbols), want %#x (%d)", pattern, end, got&mask, c, want, wantC)
			}
		}
	}
	for m := 0; m <= 70; m++ {
		bases, pattern := make([]uint8, m), make([]uint8, m)
		for j := range bases {
			bases[j] = uint8(rng.Intn(ftabSigma))
		}
		for v := range 256 {
			// Every value at every position of a DNA pattern...
			for i := range pattern {
				copy(pattern, bases)
				pattern[i] = uint8(v)
				check(pattern)
			}
			// ...and in patterns of every value.
			for j := range pattern {
				pattern[j] = uint8(v + 37*j)
			}
			check(pattern)
		}
	}
}
