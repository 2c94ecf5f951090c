package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// naive is the reference implementation all queries are checked against.
type naive []bool

func (n naive) rank1(i int) int {
	c := 0
	for _, b := range n[:i] {
		if b {
			c++
		}
	}
	return c
}

func randomBits(rng *rand.Rand, n int, density float64) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Float64() < density
	}
	return out
}

func TestEmptyVector(t *testing.T) {
	v := FromBools(nil)
	if v.Len() != 0 || v.Ones() != 0 {
		t.Fatalf("empty vector: Len=%d Ones=%d", v.Len(), v.Ones())
	}
	if v.Rank1(0) != 0 {
		t.Error("Rank1(0) on empty vector != 0")
	}
}

func TestBitAccess(t *testing.T) {
	bits := []bool{true, false, false, true, true}
	v := FromBools(bits)
	for i, want := range bits {
		if v.Bit(i) != want {
			t.Errorf("Bit(%d) = %v, want %v", i, v.Bit(i), want)
		}
	}
}

func TestRankMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 63, 64, 65, 511, 512, 513, 4096, 70000} {
		for _, density := range []float64{0, 0.05, 0.5, 0.95, 1} {
			bits := randomBits(rng, n, density)
			v := FromBools(bits)
			nv := naive(bits)
			if v.Ones() != nv.rank1(n) {
				t.Fatalf("n=%d density=%v: Ones=%d, want %d", n, density, v.Ones(), nv.rank1(n))
			}
			// All positions for small n, sampled positions for large n.
			step := 1
			if n > 2048 {
				step = 97
			}
			for i := 0; i <= n; i += step {
				if got, want := v.Rank1(i), nv.rank1(i); got != want {
					t.Fatalf("n=%d density=%v: Rank1(%d)=%d, want %d", n, density, i, got, want)
				}
				if got, want := v.Rank0(i), i-nv.rank1(i); got != want {
					t.Fatalf("Rank0(%d)=%d, want %d", i, got, want)
				}
			}
		}
	}
}

func TestRankMonotone(t *testing.T) {
	f := func(raw []byte) bool {
		bits := make([]bool, len(raw))
		for i := range bits {
			bits[i] = raw[i]&1 == 1
		}
		v := FromBools(bits)
		for i := 0; i < v.Len(); i++ {
			d := v.Rank1(i+1) - v.Rank1(i)
			if (d != 1) == v.Bit(i) || d < 0 || d > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAppendWord(t *testing.T) {
	b := NewBuilder(10)
	b.AppendWord(0b1011, 4)
	b.AppendWord(0, 2)
	v := b.Build()
	want := []bool{true, true, false, true, false, false}
	if v.Len() != len(want) {
		t.Fatalf("Len=%d, want %d", v.Len(), len(want))
	}
	for i, w := range want {
		if v.Bit(i) != w {
			t.Errorf("Bit(%d)=%v, want %v", i, v.Bit(i), w)
		}
	}

	// Words of any width at any bit offset, with bits set above the width,
	// build what the same bits appended one at a time build.
	rng := rand.New(rand.NewSource(13))
	words, bits := NewBuilder(0), NewBuilder(0)
	for range 500 {
		w, nbits := rng.Uint64(), rng.Intn(65)
		words.AppendWord(w, nbits)
		for j := range nbits {
			bits.Append(w>>uint(j)&1 == 1)
		}
	}
	got, ref := words.Build(), bits.Build()
	if got.Len() != ref.Len() || got.Ones() != ref.Ones() {
		t.Fatalf("word-built vector: %d bits, %d ones; bit-built: %d, %d", got.Len(), got.Ones(), ref.Len(), ref.Ones())
	}
	for i, w := range ref.Words() {
		if got.Words()[i] != w {
			t.Fatalf("word %d = %#x, bit-built %#x", i, got.Words()[i], w)
		}
	}
}

func TestRankBoundsPanic(t *testing.T) {
	v := FromBools([]bool{true})
	for _, i := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Rank1(%d) did not panic", i)
				}
			}()
			v.Rank1(i)
		}()
	}
}

func TestSizeBytesPositive(t *testing.T) {
	v := FromBools(randomBits(rand.New(rand.NewSource(1)), 10000, 0.5))
	if v.SizeBytes() < 10000/8 {
		t.Errorf("SizeBytes=%d implausibly small", v.SizeBytes())
	}
}
