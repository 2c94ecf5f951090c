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

// TestPackedTextMatchesBytes holds the SMEM search's comparisons with the
// packed text to the same comparisons one byte at a time, on texts of every
// length up to 100 — so every position meets a word's edge — at every
// position, with patterns cut from the text itself, with a substitution or
// a symbol outside the DNA alphabet, and random ones.
func TestPackedTextMatchesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= 100; n++ {
		text := buildText(rng, n)
		packed := packedText(dna.Pack(text).Words())
		for trial := range 6 {
			lo := rng.Intn(n)
			pattern := append([]uint8(nil), text[lo:lo+rng.Intn(n-lo+1)]...)
			switch {
			case trial == 1 && len(pattern) > 0:
				pattern[rng.Intn(len(pattern))] ^= uint8(1 + rng.Intn(3))
			case trial == 2 && len(pattern) > 0:
				pattern[rng.Intn(len(pattern))] = uint8(4 + rng.Intn(2))
			case trial == 3:
				pattern = buildText(rng, rng.Intn(70))
			}
			for p := 0; p <= n; p++ {
				wantSuffix := 0
				for wantSuffix < p && wantSuffix < len(pattern) && text[p-1-wantSuffix] == pattern[len(pattern)-1-wantSuffix] {
					wantSuffix++
				}
				if got := packed.commonSuffix(p, pattern); got != wantSuffix {
					t.Fatalf("n=%d: commonSuffix(%d, %v) = %d, want %d", n, p, pattern, got, wantSuffix)
				}
				wantPrefix := 0
				for p+wantPrefix < n && wantPrefix < len(pattern) && text[p+wantPrefix] == pattern[wantPrefix] {
					wantPrefix++
				}
				if got := packed.commonPrefix(p, n, pattern); got != wantPrefix {
					t.Fatalf("n=%d: commonPrefix(%d, %v) = %d, want %d", n, p, pattern, got, wantPrefix)
				}
			}
			// A position past the end, which a corrupt sampled array can
			// locate, is taken back to it.
			if got := packed.commonPrefix(n+1+rng.Intn(70), n, pattern); got != 0 {
				t.Fatalf("n=%d: commonPrefix past the end = %d, want 0", n, got)
			}
			var h hits
			for h.n < maxLocated && h.n < n {
				h.pos[h.n] = int32(rng.Intn(n))
				h.n++
			}
			for a := range uint8(ftabSigma) {
				off := rng.Intn(4)
				var before, at hits
				for _, p := range h.pos[:h.n] {
					if p > 0 && text[p-1] == a {
						before.pos[before.n] = p - 1
						before.n++
					}
					if q := int(p) + off; q < n && text[q] == a {
						at.pos[at.n] = p
						at.n++
					}
				}
				if got := packed.keepBefore(h, a); got != before {
					t.Fatalf("n=%d: keepBefore(%v, %d) = %v, want %v", n, h, a, got, before)
				}
				if got := packed.keepAt(h, off, n, a); got != at {
					t.Fatalf("n=%d: keepAt(%v, %d, %d) = %v, want %v", n, h, off, a, got, at)
				}
			}
		}
	}
}
