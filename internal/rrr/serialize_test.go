package rrr

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestSequenceSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, p := range []Params{{15, 50}, {15, 1}, {5, 3}, {2, 200}} {
		for _, n := range []int{0, 1, 14, 15, 10000} {
			in := randomBools(rng, n, 0.35)
			orig, err := FromBools(in, p)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			written, err := orig.WriteTo(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if written != int64(buf.Len()) {
				t.Fatalf("WriteTo reported %d, wrote %d", written, buf.Len())
			}
			back, err := ReadSequence(&buf)
			if err != nil {
				t.Fatalf("p=%+v n=%d: %v", p, n, err)
			}
			if back.Len() != n || back.Ones() != orig.Ones() || back.Params() != p {
				t.Fatalf("p=%+v n=%d: metadata changed", p, n)
			}
			for i := 0; i <= n; i += 1 + n/200 {
				if back.Rank1(i) != orig.Rank1(i) {
					t.Fatalf("p=%+v n=%d: Rank1(%d) changed", p, n, i)
				}
			}
		}
	}
}

func TestReadSequenceRejectsCorruption(t *testing.T) {
	in := randomBools(rand.New(rand.NewSource(52)), 2000, 0.5)
	orig, err := FromBools(in, Params{BlockSize: 15, SuperblockFactor: 10})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for _, cut := range []int{0, 10, 27, len(good) / 2, len(good) - 1} {
		if _, err := ReadSequence(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("accepted sequence truncated to %d bytes", cut)
		}
	}
	// Flipping a partial-sum byte must be caught by the consistency check.
	bad := append([]byte(nil), good...)
	// partialSum starts after 28-byte header + classes.
	classBytes := (2000/15 + 1 + 1) / 2
	bad[28+classBytes+5] ^= 0x7F
	if _, err := ReadSequence(bytes.NewReader(bad)); err == nil {
		t.Error("accepted corrupted partial sums")
	}
}

func BenchmarkEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := runBools(rng, 1<<20, 40)
	b.SetBytes(1 << 17) // bits to bytes
	for i := 0; i < b.N; i++ {
		if _, err := FromBools(in, DefaultParams); err != nil {
			b.Fatal(err)
		}
	}
}
