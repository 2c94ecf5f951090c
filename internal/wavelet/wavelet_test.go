package wavelet

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"bwaver/internal/rrr"
)

func naiveRank(data []uint8, sym uint8, i int) int {
	c := 0
	for _, s := range data[:i] {
		if s == sym {
			c++
		}
	}
	return c
}

func naiveSelect(data []uint8, sym uint8, k int) int {
	for i, s := range data {
		if s == sym {
			k--
			if k == 0 {
				return i
			}
		}
	}
	return -1
}

func randomData(rng *rand.Rand, n, sigma int) []uint8 {
	out := make([]uint8, n)
	for i := range out {
		out[i] = uint8(rng.Intn(sigma))
	}
	return out
}

var testBackends = []struct {
	name string
	b    Backend
}{
	{"rrr", RRRBackend(rrr.Params{BlockSize: 15, SuperblockFactor: 10})},
	{"plain", PlainBackend()},
	{"default", nil},
}

func TestRankMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, be := range testBackends {
		for _, sigma := range []int{2, 3, 4, 5, 8, 16} {
			for _, n := range []int{0, 1, 2, 100, 3000} {
				data := randomData(rng, n, sigma)
				tr, err := New(data, sigma, be.b)
				if err != nil {
					t.Fatalf("%s sigma=%d n=%d: %v", be.name, sigma, n, err)
				}
				step := 1
				if n > 500 {
					step = 17
				}
				for i := 0; i <= n; i += step {
					for sym := 0; sym < sigma; sym++ {
						got := tr.Rank(uint8(sym), i)
						want := naiveRank(data, uint8(sym), i)
						if got != want {
							t.Fatalf("%s sigma=%d n=%d: Rank(%d,%d)=%d, want %d", be.name, sigma, n, sym, i, got, want)
						}
					}
				}
			}
		}
	}
}

// TestRankPairMatchesNaive is the pair-walk property: for every alphabet
// shape (power of two or not, sigma = 2's single node included) and both
// backends, RankPair and RankAllPair at (i, j) equal the naive counts — and
// so Rank and RankAll at i and at j — for near pairs, far pairs and i > j.
func TestRankPairMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, be := range testBackends {
		for _, sigma := range []int{2, 3, 4, 5, 8} {
			data := randomData(rng, 1200, sigma)
			tr, err := New(data, sigma, be.b)
			if err != nil {
				t.Fatalf("%s sigma=%d: %v", be.name, sigma, err)
			}
			lo, hi, one := make([]int, sigma), make([]int, sigma), make([]int, sigma)
			for trial := 0; trial < 400; trial++ {
				i := rng.Intn(len(data) + 1)
				j := rng.Intn(len(data) + 1)
				if trial%2 == 0 {
					j = min(i+rng.Intn(40), len(data)) // a narrowed range
				}
				tr.RankAllPair(i, j, lo, hi)
				for sym := 0; sym < sigma; sym++ {
					wantI, wantJ := naiveRank(data, uint8(sym), i), naiveRank(data, uint8(sym), j)
					if gotI, gotJ := tr.RankPair(uint8(sym), i, j); gotI != wantI || gotJ != wantJ {
						t.Fatalf("%s sigma=%d: RankPair(%d,%d,%d)=(%d,%d), want (%d,%d)", be.name, sigma, sym, i, j, gotI, gotJ, wantI, wantJ)
					}
					if lo[sym] != wantI || hi[sym] != wantJ {
						t.Fatalf("%s sigma=%d: RankAllPair(%d,%d)[%d]=(%d,%d), want (%d,%d)", be.name, sigma, i, j, sym, lo[sym], hi[sym], wantI, wantJ)
					}
					if got := tr.Rank(uint8(sym), j); got != wantJ {
						t.Fatalf("%s sigma=%d: Rank(%d,%d)=%d, want %d", be.name, sigma, sym, j, got, wantJ)
					}
				}
				tr.RankAll(j, one)
				for sym := range one {
					if one[sym] != hi[sym] {
						t.Fatalf("%s sigma=%d: RankAll(%d)[%d]=%d, RankAllPair says %d", be.name, sigma, j, sym, one[sym], hi[sym])
					}
				}
			}
		}
	}
}

func TestAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, be := range testBackends {
		for _, sigma := range []int{2, 4, 7, 16} {
			data := randomData(rng, 2000, sigma)
			tr, err := New(data, sigma, be.b)
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range data {
				if got := tr.Access(i); got != want {
					t.Fatalf("%s sigma=%d: Access(%d)=%d, want %d", be.name, sigma, i, got, want)
				}
			}
		}
	}
}

// TestAccessRankMatchesAccessAndRank: the one-descent pair is the symbol at
// every position and its rank there, for σ 2…8 on both backends.
func TestAccessRankMatchesAccessAndRank(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, be := range testBackends {
		for sigma := 2; sigma <= 8; sigma++ {
			data := randomData(rng, 1500, sigma)
			tr, err := New(data, sigma, be.b)
			if err != nil {
				t.Fatalf("%s sigma=%d: %v", be.name, sigma, err)
			}
			for i, want := range data {
				sym, rank := tr.AccessRank(i)
				if wantRank := tr.Rank(want, i); sym != want || rank != wantRank {
					t.Fatalf("%s sigma=%d: AccessRank(%d) = (%d, %d), want (%d, %d)", be.name, sigma, i, sym, rank, want, wantRank)
				}
			}
		}
	}
}

func TestSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, be := range testBackends {
		for _, sigma := range []int{2, 4, 6} {
			data := randomData(rng, 1500, sigma)
			tr, err := New(data, sigma, be.b)
			if err != nil {
				t.Fatal(err)
			}
			for sym := 0; sym < sigma; sym++ {
				count := tr.Count(uint8(sym))
				if count != naiveRank(data, uint8(sym), len(data)) {
					t.Fatalf("Count(%d) wrong", sym)
				}
				for k := 1; k <= count; k += 1 + count/40 {
					got := tr.Select(uint8(sym), k)
					want := naiveSelect(data, uint8(sym), k)
					if got != want {
						t.Fatalf("%s sigma=%d: Select(%d,%d)=%d, want %d", be.name, sigma, sym, k, got, want)
					}
				}
				if tr.Select(uint8(sym), count+1) != -1 {
					t.Error("Select past count should be -1")
				}
			}
		}
	}
}

func TestSelectRankInverseProperty(t *testing.T) {
	f := func(raw []byte) bool {
		data := make([]uint8, len(raw))
		for i, r := range raw {
			data[i] = r & 3
		}
		tr, err := New(data, 4, RRRBackend(rrr.Params{BlockSize: 7, SuperblockFactor: 3}))
		if err != nil {
			return false
		}
		for sym := uint8(0); sym < 4; sym++ {
			for k := 1; k <= tr.Count(sym); k++ {
				p := tr.Select(sym, k)
				if tr.Access(p) != sym || tr.Rank(sym, p) != k-1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRanksSumToLength(t *testing.T) {
	f := func(raw []byte) bool {
		data := make([]uint8, len(raw))
		for i, r := range raw {
			data[i] = r & 3
		}
		tr, err := New(data, 4, nil)
		if err != nil {
			return false
		}
		for i := 0; i <= len(data); i++ {
			sum := 0
			for sym := uint8(0); sym < 4; sym++ {
				sum += tr.Rank(sym, i)
			}
			if sum != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestInvalidInputs(t *testing.T) {
	if _, err := New([]uint8{0, 1}, 1, nil); err == nil {
		t.Error("accepted sigma < 2")
	}
	if _, err := New([]uint8{0, 5}, 4, nil); err == nil {
		t.Error("accepted out-of-alphabet symbol")
	}
	tr, err := New([]uint8{0, 1, 2, 3}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []func(){
		func() { tr.Rank(0, -1) },
		func() { tr.Rank(0, 5) },
		func() { tr.Rank(9, 0) },
		func() { tr.Access(-1) },
		func() { tr.Access(4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on invalid query")
				}
			}()
			fn()
		}()
	}
	if tr.Select(9, 1) != -1 || tr.Select(0, 0) != -1 {
		t.Error("Select on invalid args should return -1")
	}
}

func TestLevels(t *testing.T) {
	cases := map[int]int{2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 16: 4}
	for sigma, want := range cases {
		tr, err := New(randomData(rand.New(rand.NewSource(1)), 64, sigma), sigma, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Levels() != want {
			t.Errorf("sigma=%d: Levels=%d, want %d", sigma, tr.Levels(), want)
		}
	}
}

func TestDNATreeShape(t *testing.T) {
	// For sigma=4 the tree must have exactly 3 internal nodes and 2 levels.
	tr, err := New(randomData(rand.New(rand.NewSource(1)), 1000, 4), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NodeCount() != 3 {
		t.Errorf("NodeCount=%d, want 3", tr.NodeCount())
	}
	if tr.Levels() != 2 {
		t.Errorf("Levels=%d, want 2", tr.Levels())
	}
}

// TestRRRSmallerThanPlainOnRuns checks the paper's space claim at the tree
// level: for run-structured (BWT-like) data the RRR backend is smaller than
// the plain backend.
func TestRRRSmallerThanPlainOnRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 300000
	data := make([]uint8, n)
	cur := uint8(rng.Intn(4))
	for i := 0; i < n; {
		runLen := 1 + rng.Intn(80)
		for j := 0; j < runLen && i < n; j++ {
			data[i] = cur
			i++
		}
		cur = uint8(rng.Intn(4))
	}
	rrrTree, err := New(data, 4, RRRBackend(rrr.Params{BlockSize: 15, SuperblockFactor: 100}))
	if err != nil {
		t.Fatal(err)
	}
	plainTree, err := New(data, 4, PlainBackend())
	if err != nil {
		t.Fatal(err)
	}
	if rrrTree.SizeBytes() >= plainTree.SizeBytes() {
		t.Errorf("rrr tree %dB not smaller than plain tree %dB on run input",
			rrrTree.SizeBytes(), plainTree.SizeBytes())
	}
	if rrrTree.SharedSizeBytes() == 0 {
		t.Error("rrr tree should report a shared table size")
	}
	if plainTree.SharedSizeBytes() != 0 {
		t.Error("plain tree should have no shared table")
	}
}

func TestNodeStats(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := randomData(rng, 3000, 4)
	tr, err := New(data, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	stats := tr.NodeStats()
	if len(stats) != 3 {
		t.Fatalf("%d node stats for sigma=4, want 3", len(stats))
	}
	root := stats[0]
	if root.Depth != 0 || root.Lo != 0 || root.Hi != 4 || root.Bits != 3000 {
		t.Errorf("root stat wrong: %+v", root)
	}
	// Children cover the root's zeros and ones.
	var childBits int
	for _, st := range stats[1:] {
		if st.Depth != 1 {
			t.Errorf("child depth %d", st.Depth)
		}
		childBits += st.Bits
		if st.Entropy < 0 || st.Entropy > 1 {
			t.Errorf("entropy %v out of [0,1]", st.Entropy)
		}
		if st.SizeBytes <= 0 {
			t.Errorf("node size missing: %+v", st)
		}
	}
	if childBits != 3000 {
		t.Errorf("children cover %d bits, want 3000", childBits)
	}
	// On near-uniform data the root entropy approaches 1 bit.
	if root.Entropy < 0.95 {
		t.Errorf("root entropy %v implausibly low for uniform data", root.Entropy)
	}
	// A constant string has zero-entropy nodes.
	flat := make([]uint8, 500)
	ft, err := New(flat, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := ft.NodeStats()[0]; s.Entropy != 0 || s.Ones != 0 {
		t.Errorf("constant-string root stat: %+v", s)
	}
}

// referenceBuild is tree construction as it was before nodes were packed into
// words: every node materialises its children's strings and encodes its own
// bits one at a time through rrr.New. It is the oracle for build.
func referenceBuild(t *testing.T, data []uint8, lo, hi int, p rrr.Params) *node {
	t.Helper()
	if hi-lo <= 1 {
		return nil
	}
	mid := (lo + hi + 1) / 2
	vec, err := rrr.New(func(i int) bool { return int(data[i]) >= mid }, len(data), p)
	if err != nil {
		t.Fatal(err)
	}
	var zeroData, oneData []uint8
	for _, s := range data {
		if int(s) >= mid {
			oneData = append(oneData, s)
		} else {
			zeroData = append(zeroData, s)
		}
	}
	nd := newNode(vec, lo, hi)
	nd.zero = referenceBuild(t, zeroData, lo, mid, p)
	nd.on = referenceBuild(t, oneData, mid, hi, p)
	return nd
}

// TestBuildMatchesReference: the word-packed, partition-sparing, concurrent
// build yields node for node the tree of the bit-by-bit construction — on
// alphabets whose last internal levels filter their parent's string (every
// sigma > 2), on strings long enough for subtrees to build on two goroutines
// (which is what -race watches here), and on strings missing some symbols.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := rrr.Params{BlockSize: 15, SuperblockFactor: 50}
	for _, sigma := range []int{2, 3, 4, 5, 7, 8, 9, 16, 200} {
		for _, n := range []int{0, 1, 63, 64, 65, 1000, 3 * concurrentBuildMin} {
			data := randomData(rng, n, sigma)
			if n == 1000 {
				for i := range data { // runs, and the top symbol absent
					data[i] = uint8(i / 50 % (sigma - 1))
				}
			}
			tr, err := New(data, sigma, RRRBackend(p))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tr.root, referenceBuild(t, data, 0, sigma, p)) {
				t.Fatalf("sigma=%d n=%d: tree differs from the reference construction", sigma, n)
			}
			plain, err := New(data, sigma, PlainBackend())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i += 1 + n/500 {
				if got := plain.Access(i); got != data[i] {
					t.Fatalf("plain sigma=%d n=%d: Access(%d)=%d, want %d", sigma, n, i, got, data[i])
				}
			}
		}
	}
}
