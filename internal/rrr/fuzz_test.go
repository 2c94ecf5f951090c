package rrr

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzRank checks rank against a naive count for arbitrary bit patterns and
// parameters — the core correctness contract of the whole repository — and
// that the word-wise constructor, handed the same bytes as packed words,
// builds the sequence the bit-by-bit one builds. What bRaw has left after
// choosing b drops up to seven bits off the end, so lengths are not all
// multiples of eight and the last word carries bits past n.
func FuzzRank(f *testing.F) {
	f.Add([]byte{0xFF, 0x00, 0xAA}, uint8(15), uint8(50))
	f.Add([]byte{}, uint8(2), uint8(1))
	f.Add([]byte{0x01}, uint8(7), uint8(3))
	f.Add(make([]byte, 200), uint8(13), uint8(50))                  // all zero, b = 15
	f.Add(bytes.Repeat([]byte{0xFF}, 200), uint8(13), uint8(4))     // all one
	f.Add(bytes.Repeat([]byte{0xFF}, 4), uint8(13+3*14), uint8(50)) // 29 bits: one short of two blocks of 15
	f.Add(bytes.Repeat([]byte{0x5A}, 17), uint8(6+7*14), uint8(2))  // 129 bits: one past two words, b = 8
	f.Fuzz(func(t *testing.T, raw []byte, bRaw, sfRaw uint8) {
		if len(raw) > 4096 {
			raw = raw[:4096]
		}
		const choices = MaxBlockSize - MinBlockSize + 1
		b := int(bRaw)%choices + MinBlockSize
		sf := int(sfRaw)%128 + 1
		bits := make([]bool, max(0, len(raw)*8-int(bRaw)/choices%8))
		for i := range bits {
			bits[i] = raw[i/8]>>(uint(i)%8)&1 == 1
		}
		s, err := FromBools(bits, Params{BlockSize: b, SuperblockFactor: sf})
		if err != nil {
			t.Fatalf("valid params rejected: %v", err)
		}
		words := make([]uint64, (len(raw)+7)/8)
		for i, c := range raw {
			words[i/8] |= uint64(c) << (uint(i) % 8 * 8)
		}
		fromWords, err := FromWords(words, len(bits), s.Params())
		if err != nil {
			t.Fatalf("FromWords: %v", err)
		}
		if !reflect.DeepEqual(s, fromWords) {
			t.Fatalf("b=%d sf=%d n=%d: FromWords and New build different sequences", b, sf, len(bits))
		}
		count := 0
		for i, bit := range bits {
			if got := s.Rank1(i); got != count {
				t.Fatalf("b=%d sf=%d: Rank1(%d)=%d, want %d", b, sf, i, got, count)
			}
			if s.Bit(i) != bit {
				t.Fatalf("b=%d sf=%d: Bit(%d) wrong", b, sf, i)
			}
			if bit {
				count++
			}
		}
		if s.Rank1(len(bits)) != count || s.Ones() != count {
			t.Fatalf("total rank wrong")
		}
	})
}

// FuzzRankPair checks Rank1Pair(i, j) against two naive counts — the fused
// walk (one block, one superblock) and the fallback (two superblocks, i > j)
// must both equal (Rank1(i), Rank1(j)) — and, for i <= j, the split of the
// same pair into LoadPair and DecodePair.
func FuzzRankPair(f *testing.F) {
	dense := bytes.Repeat([]byte{0xB5, 0x0F, 0x00, 0xFF, 0x31}, 40) // 1600 bits
	f.Add(dense, uint8(15), uint8(50), uint16(100), uint16(100))    // i == j
	f.Add(dense, uint8(15), uint8(50), uint16(0), uint16(1600))     // i = 0, j = n
	f.Add(dense, uint8(15), uint8(50), uint16(31), uint16(44))      // same block
	f.Add(dense, uint8(15), uint8(50), uint16(20), uint16(700))     // same superblock
	f.Add(dense, uint8(15), uint8(50), uint16(740), uint16(760))    // straddling superblocks
	f.Add(dense, uint8(15), uint8(50), uint16(750), uint16(1500))   // both on superblock starts
	f.Add(dense, uint8(7), uint8(3), uint16(15), uint16(40))        // odd sf
	f.Add(dense, uint8(2), uint8(1), uint16(900), uint16(5))        // i > j
	f.Add([]byte{}, uint8(15), uint8(50), uint16(0), uint16(0))     // n = 0
	f.Fuzz(func(t *testing.T, raw []byte, bRaw, sfRaw uint8, iRaw, jRaw uint16) {
		if len(raw) > 4096 {
			raw = raw[:4096]
		}
		b := int(bRaw)%(MaxBlockSize-MinBlockSize+1) + MinBlockSize
		sf := int(sfRaw)%128 + 1
		bits := make([]bool, len(raw)*8)
		for i := range bits {
			bits[i] = raw[i/8]>>(uint(i)%8)&1 == 1
		}
		s, err := FromBools(bits, Params{BlockSize: b, SuperblockFactor: sf})
		if err != nil {
			t.Fatalf("valid params rejected: %v", err)
		}
		i, j := int(iRaw)%(len(bits)+1), int(jRaw)%(len(bits)+1)
		wantI, wantJ := naiveRank(bits, i), naiveRank(bits, j)
		if gotI, gotJ := s.Rank1Pair(i, j); gotI != wantI || gotJ != wantJ {
			t.Fatalf("b=%d sf=%d n=%d: Rank1Pair(%d,%d)=(%d,%d), want (%d,%d)", b, sf, len(bits), i, j, gotI, gotJ, wantI, wantJ)
		}
		if i <= j {
			var h PairHead
			s.LoadPair(&h, i, j)
			if gotI, gotJ := s.DecodePair(&h); gotI != wantI || gotJ != wantJ {
				t.Fatalf("b=%d sf=%d n=%d: DecodePair after LoadPair(%d,%d)=(%d,%d), want (%d,%d)", b, sf, len(bits), i, j, gotI, gotJ, wantI, wantJ)
			}
		}
		if s.Rank1(i) != wantI || s.Rank1(j) != wantJ {
			t.Fatalf("b=%d sf=%d n=%d: Rank1 disagrees with the naive count at %d or %d", b, sf, len(bits), i, j)
		}
	})
}

// FuzzSerialization checks that ReadSequence never panics on corrupted
// input and that valid serializations round-trip exactly.
func FuzzSerialization(f *testing.F) {
	orig, err := FromBools([]bool{true, false, true, true, false}, Params{BlockSize: 5, SuperblockFactor: 2})
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if _, err := orig.WriteTo(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSequence(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever deserialized must be internally consistent: ranks are
		// monotone and bounded.
		prev := 0
		for i := 0; i <= s.Len(); i += 1 + s.Len()/64 {
			r := s.Rank1(i)
			if r < prev || r > i {
				t.Fatalf("inconsistent rank %d at %d (prev %d)", r, i, prev)
			}
			prev = r
		}
	})
}
