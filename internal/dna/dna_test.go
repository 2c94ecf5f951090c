package dna

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestFromByte(t *testing.T) {
	cases := []struct {
		in   byte
		want Base
		ok   bool
	}{
		{'A', A, true}, {'C', C, true}, {'G', G, true}, {'T', T, true},
		{'a', A, true}, {'c', C, true}, {'g', G, true}, {'t', T, true},
		{'U', T, true}, {'u', T, true},
		{'N', 0, false}, {'$', 0, false}, {0, 0, false}, {' ', 0, false}, {'Z', 0, false},
	}
	for _, tc := range cases {
		got, ok := FromByte(tc.in)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("FromByte(%q) = %v,%v; want %v,%v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

func TestBaseByteRoundTrip(t *testing.T) {
	for b := Base(0); b < AlphabetSize; b++ {
		got, ok := FromByte(b.Byte())
		if !ok || got != b {
			t.Errorf("round trip of base %v failed: got %v, ok=%v", b, got, ok)
		}
	}
}

func TestComplement(t *testing.T) {
	want := map[Base]Base{A: T, T: A, C: G, G: C}
	for b, c := range want {
		if b.Complement() != c {
			t.Errorf("Complement(%v) = %v, want %v", b, b.Complement(), c)
		}
		if b.Complement().Complement() != b {
			t.Errorf("complement is not an involution at %v", b)
		}
	}
}

func TestParseSeq(t *testing.T) {
	seq, err := parseSeq("ACGTacgtU")
	if err != nil {
		t.Fatalf("ParseSeq: %v", err)
	}
	if got, want := seq.String(), "ACGTACGTT"; got != want {
		t.Errorf("ParseSeq round trip = %q, want %q", got, want)
	}
	if _, err := parseSeq("ACGNT"); err == nil {
		t.Error("ParseSeq accepted 'N'")
	}
	empty, err := parseSeq("")
	if err != nil || len(empty) != 0 {
		t.Errorf("ParseSeq(\"\") = %v, %v", empty, err)
	}
}

func TestSanitize(t *testing.T) {
	seq, replaced := Sanitize([]byte("ACGNNTX"), A)
	if replaced != 3 {
		t.Errorf("Sanitize replaced %d bytes, want 3", replaced)
	}
	if got, want := seq.String(), "ACGAATA"; got != want {
		t.Errorf("Sanitize = %q, want %q", got, want)
	}
}

func TestReverseComplement(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"A", "T"},
		{"ACGT", "ACGT"}, // palindromic
		{"AAACCC", "GGGTTT"},
		{"GATTACA", "TGTAATC"},
	}
	for _, tc := range cases {
		got := MustParseSeq(tc.in).ReverseComplement().String()
		if got != tc.want {
			t.Errorf("RC(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestReverseComplementInvolution(t *testing.T) {
	f := func(raw []byte) bool {
		seq, _ := Sanitize(raw, A)
		return slices.Equal(seq.ReverseComplement().ReverseComplement(), seq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeqClone(t *testing.T) {
	s := MustParseSeq("ACGT")
	c := s.Clone()
	c[0] = T
	if s[0] != A {
		t.Error("Clone aliases the original sequence")
	}
}

func randomSeq(rng *rand.Rand, n int) Seq {
	s := make(Seq, n)
	for i := range s {
		s[i] = Base(rng.Intn(AlphabetSize))
	}
	return s
}

// TestUnpackRange holds UnpackRange to Base(i) on every range [lo, hi) of
// sequences of every length up to 100, so that ranges start and end at
// every offset in a word and cross up to three word edges, into a buffer too
// small, one large enough and one holding other bases.
func TestUnpackRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 100; n++ {
		p := Pack(randomSeq(rng, n))
		for lo := 0; lo <= n; lo++ {
			for hi := lo; hi <= n; hi++ {
				for _, dst := range []Seq{nil, make(Seq, 3, 3), randomSeq(rng, 120)} {
					got := p.UnpackRange(dst, lo, hi)
					if len(got) != hi-lo {
						t.Fatalf("n=%d: UnpackRange(%d, %d) has %d bases", n, lo, hi, len(got))
					}
					for i, b := range got {
						if b != p.Base(lo+i) {
							t.Fatalf("n=%d: UnpackRange(%d, %d)[%d] = %v, want %v", n, lo, hi, i, b, p.Base(lo+i))
						}
					}
				}
			}
		}
	}
}

func TestPackedBoundsPanic(t *testing.T) {
	p := Pack(MustParseSeq("ACGT"))
	for _, r := range [][2]int{{-1, 2}, {0, 5}, {3, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("UnpackRange(%d, %d) did not panic", r[0], r[1])
				}
			}()
			p.UnpackRange(nil, r[0], r[1])
		}()
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 31, 32, 33, 63, 64, 65, 100, 176, 1000} {
		s := randomSeq(rng, n)
		p := Pack(s)
		if p.Len() != n {
			t.Fatalf("Pack len = %d, want %d", p.Len(), n)
		}
		if !slices.Equal(p.Unpack(), s) {
			t.Fatalf("pack/unpack round trip failed at n=%d", n)
		}
		for i := 0; i < n; i++ {
			if p.Base(i) != s[i] {
				t.Fatalf("Base(%d) = %v, want %v", i, p.Base(i), s[i])
			}
		}
	}
}

func TestPackedRCViaUnpack(t *testing.T) {
	f := func(raw []byte) bool {
		seq, _ := Sanitize(raw, C)
		p := Pack(seq)
		return slices.Equal(p.Unpack().ReverseComplement(), seq.ReverseComplement())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Base returns the i-th base, one at a time: the reference for the word
// loops of Pack and Unpack.
func (p PackedSeq) Base(i int) Base {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("dna: packed index %d out of range [0,%d)", i, p.n))
	}
	return Base((p.words[i/BasesPerWord] >> uint((i%BasesPerWord)*2)) & 3)
}
