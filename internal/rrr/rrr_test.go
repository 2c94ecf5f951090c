package rrr

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
)

func naiveRank(b []bool, i int) int {
	c := 0
	for _, x := range b[:i] {
		if x {
			c++
		}
	}
	return c
}

func randomBools(rng *rand.Rand, n int, density float64) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Float64() < density
	}
	return out
}

// runBools simulates low-entropy BWT-like input: long runs of equal bits.
func runBools(rng *rand.Rand, n int, meanRun int) []bool {
	out := make([]bool, n)
	cur := rng.Intn(2) == 1
	for i := 0; i < n; {
		runLen := 1 + rng.Intn(2*meanRun)
		for j := 0; j < runLen && i < n; j++ {
			out[i] = cur
			i++
		}
		cur = !cur
	}
	return out
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{BlockSize: 1, SuperblockFactor: 10},
		{BlockSize: 16, SuperblockFactor: 10},
		{BlockSize: 0, SuperblockFactor: 10},
		{BlockSize: 15, SuperblockFactor: 0},
		{BlockSize: 15, SuperblockFactor: -3},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid params", p)
		}
	}
	if err := DefaultParams.Validate(); err != nil {
		t.Errorf("DefaultParams invalid: %v", err)
	}
}

func TestTableFor(t *testing.T) {
	for b := MinBlockSize; b <= MaxBlockSize; b++ {
		tab, err := TableFor(b)
		if err != nil {
			t.Fatalf("TableFor(%d): %v", b, err)
		}
		if len(tab.Permutations) != 1<<uint(b) {
			t.Fatalf("b=%d: %d permutations, want %d", b, len(tab.Permutations), 1<<uint(b))
		}
		// Sorted by class then value; offsets invert correctly.
		for i := 1; i < len(tab.Permutations); i++ {
			ci := bits.OnesCount16(tab.Permutations[i-1])
			cj := bits.OnesCount16(tab.Permutations[i])
			if ci > cj || (ci == cj && tab.Permutations[i-1] >= tab.Permutations[i]) {
				t.Fatalf("b=%d: permutations not sorted at %d", b, i)
			}
		}
		for v := 0; v < 1<<uint(b); v++ {
			c := bits.OnesCount16(uint16(v))
			if tab.Block(c, tab.OffsetOf(uint16(v))) != uint16(v) {
				t.Fatalf("b=%d: offset round trip failed for value %d", b, v)
			}
		}
		// Class runs have binomial(b, c) entries and widths are ceil(log2).
		binom := 1
		for c := 0; c <= b; c++ {
			run := int(tab.ClassOffset[c+1] - tab.ClassOffset[c])
			if run != binom {
				t.Fatalf("b=%d c=%d: run %d, want binomial %d", b, c, run, binom)
			}
			want := int(math.Ceil(math.Log2(float64(run))))
			if run == 1 {
				want = 0
			}
			if tab.Width(c) != want {
				t.Fatalf("b=%d c=%d: width %d, want %d", b, c, tab.Width(c), want)
			}
			binom = binom * (b - c) / (c + 1)
		}
	}
	if _, err := TableFor(1); err == nil {
		t.Error("TableFor(1) should fail")
	}
	if _, err := TableFor(16); err == nil {
		t.Error("TableFor(16) should fail")
	}
}

func TestTableShared(t *testing.T) {
	a, _ := TableFor(15)
	b, _ := TableFor(15)
	if a != b {
		t.Error("TableFor(15) did not return the shared instance")
	}
}

func TestRankMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	params := []Params{
		{BlockSize: 15, SuperblockFactor: 50},
		{BlockSize: 15, SuperblockFactor: 1},
		{BlockSize: 15, SuperblockFactor: 100},
		{BlockSize: 7, SuperblockFactor: 4},
		{BlockSize: 3, SuperblockFactor: 2},
		{BlockSize: 2, SuperblockFactor: 200},
	}
	lengths := []int{0, 1, 14, 15, 16, 749, 750, 751, 10000}
	for _, p := range params {
		for _, n := range lengths {
			for _, density := range []float64{0, 0.1, 0.5, 1} {
				in := randomBools(rng, n, density)
				s, err := FromBools(in, p)
				if err != nil {
					t.Fatalf("FromBools(n=%d,%+v): %v", n, p, err)
				}
				if s.Len() != n {
					t.Fatalf("Len=%d, want %d", s.Len(), n)
				}
				step := 1
				if n > 2000 {
					step = 53
				}
				for i := 0; i <= n; i += step {
					if got, want := s.Rank1(i), naiveRank(in, i); got != want {
						t.Fatalf("p=%+v n=%d density=%v: Rank1(%d)=%d, want %d", p, n, density, i, got, want)
					}
				}
				if s.Ones() != naiveRank(in, n) {
					t.Fatalf("Ones=%d, want %d", s.Ones(), naiveRank(in, n))
				}
			}
		}
	}
}

// TestRankPairEveryLayout walks every block size, superblock factors that are
// odd, even and 1, and lengths on and around superblock boundaries (0 and
// whole multiples of b*sf included), checking Rank1Pair and its split into
// LoadPair and DecodePair against Rank1 at every i for partners in the same
// block, the same superblock, the next superblock and the end — and Rank1
// and Bit against the input.
func TestRankPairEveryLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var h PairHead
	for b := MinBlockSize; b <= MaxBlockSize; b++ {
		for _, sf := range []int{1, 2, 3, 7, 50} {
			sb := b * sf
			for _, n := range []int{0, 1, sb - 1, sb, sb + 1, 2 * sb, 3*sb - b, 3*sb + b + 1} {
				in := randomBools(rng, n, 0.4)
				s, err := FromBools(in, Params{BlockSize: b, SuperblockFactor: sf})
				if err != nil {
					t.Fatalf("b=%d sf=%d n=%d: %v", b, sf, n, err)
				}
				rank := make([]int, n+1)
				for i, bit := range in {
					rank[i+1] = rank[i]
					if bit {
						rank[i+1]++
					}
					if s.Bit(i) != bit {
						t.Fatalf("b=%d sf=%d n=%d: Bit(%d) wrong", b, sf, n, i)
					}
				}
				for i := 0; i <= n; i++ {
					if got := s.Rank1(i); got != rank[i] {
						t.Fatalf("b=%d sf=%d n=%d: Rank1(%d)=%d, want %d", b, sf, n, i, got, rank[i])
					}
					for _, j := range []int{i, i + 1, i + b - 1, i + b, i + sb - 1, i + sb, n} {
						if j > n {
							continue
						}
						if ri, rj := s.Rank1Pair(i, j); ri != rank[i] || rj != rank[j] {
							t.Fatalf("b=%d sf=%d n=%d: Rank1Pair(%d,%d)=(%d,%d), want (%d,%d)", b, sf, n, i, j, ri, rj, rank[i], rank[j])
						}
						s.LoadPair(&h, i, j)
						if ri, rj := s.DecodePair(&h); ri != rank[i] || rj != rank[j] {
							t.Fatalf("b=%d sf=%d n=%d: DecodePair after LoadPair(%d,%d)=(%d,%d), want (%d,%d)", b, sf, n, i, j, ri, rj, rank[i], rank[j])
						}
					}
				}
			}
		}
	}
}

// TestFromWordsMatchesNew: the word-wise constructor builds, record for
// record, what the bit-by-bit one builds — for every block size, at lengths
// around block, word and superblock boundaries, on random, run-structured,
// all-zero and all-one bits, and with stray bits past n in the last word.
func TestFromWordsMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for b := MinBlockSize; b <= MaxBlockSize; b++ {
		for _, sf := range []int{1, 3, 50} {
			p := Params{BlockSize: b, SuperblockFactor: sf}
			lengths := []int{0, 1, b - 1, b, b + 1, 63, 64, 65, 127, 128, 129, b*sf - 1, b * sf, b*sf + 1, 5*b*sf - 1, 1000 + rng.Intn(3000)}
			for _, n := range lengths {
				for name, bools := range map[string][]bool{
					"random": randomBools(rng, n, 0.5),
					"sparse": randomBools(rng, n, 0.03),
					"runs":   runBools(rng, n, 40),
					"zeros":  make([]bool, n),
					"ones":   randomBools(rng, n, 1),
				} {
					want, err := FromBools(bools, p)
					if err != nil {
						t.Fatal(err)
					}
					words := make([]uint64, n/64+1)
					for i := range words {
						words[i] = rng.Uint64() // stray bits, overwritten below up to n
					}
					for i, bit := range bools {
						words[i/64] &^= 1 << uint(i%64)
						if bit {
							words[i/64] |= 1 << uint(i%64)
						}
					}
					got, err := FromWords(words, n, p)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("b=%d sf=%d n=%d %s: FromWords differs from New", b, sf, n, name)
					}
				}
			}
		}
	}
	if _, err := FromWords(make([]uint64, 1), 65, DefaultParams); err == nil {
		t.Error("FromWords accepted more bits than its words hold")
	}
}

func TestRankOnRunInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := runBools(rng, 50000, 40)
	s, err := FromBools(in, DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= len(in); i += 37 {
		if got, want := s.Rank1(i), naiveRank(in, i); got != want {
			t.Fatalf("Rank1(%d)=%d, want %d", i, got, want)
		}
	}
}

func TestBitDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := randomBools(rng, 4001, 0.4)
	s, err := FromBools(in, Params{BlockSize: 11, SuperblockFactor: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range in {
		if s.Bit(i) != want {
			t.Fatalf("Bit(%d)=%v, want %v", i, s.Bit(i), want)
		}
	}
}

func TestRankBounds(t *testing.T) {
	s, _ := FromBools([]bool{true, false}, DefaultParams)
	for _, i := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Rank1(%d) did not panic", i)
				}
			}()
			s.Rank1(i)
		}()
	}
}

func TestNegativeLength(t *testing.T) {
	if _, err := New(func(int) bool { return false }, -1, DefaultParams); err == nil {
		t.Error("New accepted negative length")
	}
}

// TestSizeMatchesPaperFormula confirms the implementation's space accounting
// tracks the closed form in §III-B of the paper within rounding slack.
func TestSizeMatchesPaperFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	in := runBools(rng, 300000, 30)
	for _, p := range []Params{{15, 50}, {15, 100}, {10, 50}, {7, 64}} {
		s, err := FromBools(in, p)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(s.SizeBytes() + s.SharedSizeBytes())
		want := s.PaperFormulaBytes()
		// Allow a few percent of slack for array-boundary rounding and the
		// +1 partial-sum entry.
		if math.Abs(got-want) > 0.05*want+64 {
			t.Errorf("p=%+v: size %v, paper formula %v", p, got, want)
		}
	}
}

// TestSizeAccounting pins SizeBytes to the record layout, field by field, and
// bounds what the layout costs over the paper's arrays (PackedSizeBytes): at
// most 7 pad bits per superblock, a spare class nibble per superblock when
// sf is odd, and one more directory word.
func TestSizeAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	in := runBools(rng, 100000, 30)
	for _, p := range []Params{{15, 50}, {15, 51}, {15, 1}, {7, 64}, {2, 3}} {
		s, err := FromBools(in, p)
		if err != nil {
			t.Fatal(err)
		}
		b, sf := p.BlockSize, p.SuperblockFactor
		nBlk := (len(in) + b - 1) / b
		nSuper := (nBlk + sf - 1) / sf
		want := 4*(nSuper+1) + 4 + 3*4 // directory, closing record, header words
		for super := 0; super < nSuper; super++ {
			blocks, width := 0, 0
			for blk := super * sf; blk < (super+1)*sf && blk < nBlk; blk++ {
				ones := 0
				for i := blk * b; i < (blk+1)*b && i < len(in); i++ {
					if in[i] {
						ones++
					}
				}
				blocks++
				width += s.table.Width(ones)
			}
			want += 4 + (blocks+1)/2 + (width+7)/8
		}
		if got := s.SizeBytes(); got != want {
			t.Errorf("p=%+v: SizeBytes %d, records add up to %d", p, got, want)
		}
		over := s.SizeBytes() - s.PackedSizeBytes()
		limit := nSuper + 4
		if sf%2 == 1 {
			limit += nSuper
		}
		if over < 0 || over > limit {
			t.Errorf("p=%+v: records cost %d bytes over the packed arrays, limit %d", p, over, limit)
		}
	}
}

// TestCompressionOnLowEntropyInput checks the headline property the paper
// relies on: BWT-like run-structured bit-vectors compress well below the
// plain 1-bit-per-bit representation.
func TestCompressionOnLowEntropyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 400000
	in := runBools(rng, n, 60)
	s, err := FromBools(in, Params{BlockSize: 15, SuperblockFactor: 100})
	if err != nil {
		t.Fatal(err)
	}
	plain := n / 8
	if s.SizeBytes() >= plain {
		t.Errorf("low-entropy input did not compress: rrr=%dB plain=%dB", s.SizeBytes(), plain)
	}
}

// TestSizeDecreasesWithSf reproduces the Fig. 5 trend at unit scale:
// growing the superblock factor shrinks the structure.
func TestSizeDecreasesWithSf(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := randomBools(rng, 200000, 0.5)
	prev := math.MaxInt
	for _, sf := range []int{25, 50, 100, 200} {
		s, err := FromBools(in, Params{BlockSize: 15, SuperblockFactor: sf})
		if err != nil {
			t.Fatal(err)
		}
		if s.SizeBytes() >= prev {
			t.Errorf("sf=%d: size %d did not decrease from %d", sf, s.SizeBytes(), prev)
		}
		prev = s.SizeBytes()
	}
}

func BenchmarkRank(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := runBools(rng, 1<<20, 40)
	for _, sf := range []int{50, 100, 200} {
		s, err := FromBools(in, Params{BlockSize: 15, SuperblockFactor: sf})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(benchName("sf", sf), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Rank1((i * 7919) % (s.Len() + 1))
			}
		})
	}
}

// BenchmarkRankPair times both ends of a range in one call: near pairs share
// a block or a superblock (a narrowed backward-search range, the fused walk),
// far pairs sit in different superblocks (two independent ranks).
func BenchmarkRankPair(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := runBools(rng, 1<<20, 40)
	s, err := FromBools(in, DefaultParams)
	if err != nil {
		b.Fatal(err)
	}
	for _, gap := range []struct {
		name string
		bits int
	}{{"near", 1}, {"same-superblock", 300}, {"far", 1 << 19}} {
		b.Run(gap.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := (i * 7919) % (s.Len() + 1 - gap.bits)
				s.Rank1Pair(p, p+gap.bits)
			}
		})
	}
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
