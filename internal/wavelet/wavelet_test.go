package wavelet

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"bwaver/internal/bitvec"
	"bwaver/internal/bwt"
	"bwaver/internal/rrr"
	"bwaver/internal/suffixarray"
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

func randomData(rng *rand.Rand, n, sigma int) []uint8 {
	out := make([]uint8, n)
	for i := range out {
		out[i] = uint8(rng.Intn(sigma))
	}
	return out
}

var testParams = []struct {
	name string
	p    rrr.Params
}{
	{"sf10", rrr.Params{BlockSize: 15, SuperblockFactor: 10}},
	{"default", rrr.DefaultParams},
}

func TestRankMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, be := range testParams {
		for _, sigma := range []int{2, 3, 4, 5, 8, 16} {
			for _, n := range []int{0, 1, 2, 100, 3000} {
				data := randomData(rng, n, sigma)
				tr, err := New(data, sigma, be.p)
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
				for sym := 0; sym < sigma; sym++ {
					if got, want := tr.Count(uint8(sym)), naiveRank(data, uint8(sym), n); got != want {
						t.Fatalf("%s sigma=%d n=%d: Count(%d)=%d, want %d", be.name, sigma, n, sym, got, want)
					}
				}
			}
		}
	}
}

// TestRankPairMatchesNaive is the pair-walk property: for every alphabet
// shape (power of two or not, sigma = 2's single node included) and both
// parameter sets, RankPair and RankAllPair at (i, j) equal the naive counts — and
// so Rank and RankAll at i and at j — for near pairs, far pairs and i > j.
func TestRankPairMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, be := range testParams {
		for _, sigma := range []int{2, 3, 4, 5, 8} {
			data := randomData(rng, 1200, sigma)
			tr, err := New(data, sigma, be.p)
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

// TestRankPairsMatchesRankPair runs groups of narrowed and wide queries of
// random symbols through RankPairs, on both parameter sets and alphabets whose
// leaves sit at different depths, against one RankPair per query.
func TestRankPairsMatchesRankPair(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var g Group
	for _, be := range testParams {
		for _, sigma := range []int{2, 3, 4, 5, 8} {
			data := randomData(rng, 3000, sigma)
			tr, err := New(data, sigma, be.p)
			if err != nil {
				t.Fatalf("%s sigma=%d: %v", be.name, sigma, err)
			}
			for _, size := range []int{1, 2, 17, 128} {
				q := make([]PairQuery, size)
				for k := range q {
					i := rng.Intn(len(data) + 1)
					j := min(i+rng.Intn(60), len(data)) // a narrowed range
					if k%3 == 0 {
						j = i + rng.Intn(len(data)+1-i)
					}
					q[k] = PairQuery{I: i, J: j, Sym: uint8(rng.Intn(sigma))}
				}
				in := append([]PairQuery(nil), q...)
				tr.RankPairs(q, &g)
				for k, x := range in {
					wantI, wantJ := tr.RankPair(x.Sym, x.I, x.J)
					if q[k].I != wantI || q[k].J != wantJ || q[k].Sym != x.Sym {
						t.Fatalf("%s sigma=%d group of %d: query %d %+v answered %+v, RankPair says (%d,%d)",
							be.name, sigma, size, k, x, q[k], wantI, wantJ)
					}
				}
			}
		}
	}
}

func TestAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, be := range testParams {
		for _, sigma := range []int{2, 4, 7, 16} {
			data := randomData(rng, 2000, sigma)
			tr, err := New(data, sigma, be.p)
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
// every position and its rank there, for σ 2…8 on both parameter sets.
func TestAccessRankMatchesAccessAndRank(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, be := range testParams {
		for sigma := 2; sigma <= 8; sigma++ {
			data := randomData(rng, 1500, sigma)
			tr, err := New(data, sigma, be.p)
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

func TestRanksSumToLength(t *testing.T) {
	f := func(raw []byte) bool {
		data := make([]uint8, len(raw))
		for i, r := range raw {
			data[i] = r & 3
		}
		tr, err := New(data, 4, rrr.DefaultParams)
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
	if _, err := New([]uint8{0, 1}, 1, rrr.DefaultParams); err == nil {
		t.Error("accepted sigma < 2")
	}
	if _, err := New([]uint8{0, 5}, 4, rrr.DefaultParams); err == nil {
		t.Error("accepted out-of-alphabet symbol")
	}
	if _, err := NewBuilder([]int{1, -1}, rrr.DefaultParams); err == nil {
		t.Error("accepted a negative count")
	}
	// A Builder refuses a chunk with a symbol its counts do not promise, and
	// a Build before every promised symbol is fed.
	for _, feed := range [][]uint8{{0, 5}, {0, 1, 1}, {0}} {
		b, err := NewBuilder([]int{1, 1, 0, 0}, rrr.DefaultParams)
		if err != nil {
			t.Fatal(err)
		}
		if err = b.Write(feed); err == nil {
			_, err = b.Build()
		}
		if err == nil {
			t.Errorf("built a tree of counts [1 1 0 0] fed %v", feed)
		}
	}
	tr, err := New([]uint8{0, 1, 2, 3}, 4, rrr.DefaultParams)
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
}

func TestLevels(t *testing.T) {
	cases := map[int]int{2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 16: 4}
	for sigma, want := range cases {
		tr, err := New(randomData(rand.New(rand.NewSource(1)), 64, sigma), sigma, rrr.DefaultParams)
		if err != nil {
			t.Fatal(err)
		}
		if tr.levels != want {
			t.Errorf("sigma=%d: levels=%d, want %d", sigma, tr.levels, want)
		}
	}
}

func TestDNATreeShape(t *testing.T) {
	// For sigma=4 the tree must have exactly 3 internal nodes and 2 levels.
	tr, err := New(randomData(rand.New(rand.NewSource(1)), 1000, 4), 4, rrr.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tr.NodeStats()); n != 3 {
		t.Errorf("%d nodes, want 3", n)
	}
	if tr.levels != 2 {
		t.Errorf("levels=%d, want 2", tr.levels)
	}
}

// TestRRRSmallerThanPlainOnRuns checks the paper's space claim at the tree
// level: for run-structured (BWT-like) data the RRR nodes are smaller than
// the same nodes' bits held uncompressed, as bitvec.Vectors read back from
// the tree through Access.
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
	tr, err := New(data, 4, rrr.Params{BlockSize: 15, SuperblockFactor: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Each node's bits, rebuilt from the symbols the tree gives back: the
	// root splits on symbol >= 2, its children on the low bit.
	var root, zero, one bitvec.Builder
	bit := func(b *bitvec.Builder, set bool) {
		if set {
			b.AppendWord(1, 1)
		} else {
			b.AppendWord(0, 1)
		}
	}
	for i := 0; i < n; i++ {
		sym := tr.Access(i)
		bit(&root, sym >= 2)
		if sym >= 2 {
			bit(&one, sym == 3)
		} else {
			bit(&zero, sym == 1)
		}
	}
	rrrBytes, plainBytes := 0, 0
	for i, st := range tr.NodeStats() { // preorder: root, zero child, one child
		vec := []*bitvec.Builder{&root, &zero, &one}[i].Build()
		if vec.Len() != st.Bits || vec.Rank1(vec.Len()) != st.Ones {
			t.Fatalf("node %d: rebuilt %d bits with %d ones, the tree holds %d with %d", i, vec.Len(), vec.Rank1(vec.Len()), st.Bits, st.Ones)
		}
		rrrBytes += st.SizeBytes
		plainBytes += vec.SizeBytes()
	}
	if rrrBytes >= plainBytes {
		t.Errorf("rrr nodes %dB not smaller than the same bits uncompressed %dB on run input", rrrBytes, plainBytes)
	}
	if tr.SharedSizeBytes() == 0 {
		t.Error("rrr tree should report a shared table size")
	}
}

func TestNodeStats(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := randomData(rng, 3000, 4)
	tr, err := New(data, 4, rrr.DefaultParams)
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
	ft, err := New(flat, 4, rrr.DefaultParams)
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
	nd := &node{seq: vec, lo: lo, hi: hi}
	nd.zero = referenceBuild(t, zeroData, lo, mid, p)
	nd.on = referenceBuild(t, oneData, mid, hi, p)
	return nd
}

// buildStreamed feeds the Builder the transform of text straight from its
// suffix array, chunk symbols at a time, as the FM-index construction does,
// and returns the tree beside the transform bwt.Transform materialises.
func buildStreamed(t *testing.T, text []uint8, sigma, chunk int, p rrr.Params) (*Tree, *bwt.BWT) {
	t.Helper()
	sa, err := suffixarray.Build(text, sigma)
	if err != nil {
		t.Fatal(err)
	}
	want, err := bwt.Transform(text, sa)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, sigma)
	for _, c := range text {
		counts[c]++
	}
	b, err := NewBuilder(counts, p)
	if err != nil {
		t.Fatal(err)
	}
	// bwt's own tests hold Stream's run count to Transform's.
	primary, _, err := bwt.Stream(text, sa, make([]uint8, chunk), b.Write)
	if err != nil {
		t.Fatal(err)
	}
	if primary != want.Primary {
		t.Fatalf("sigma=%d n=%d chunk=%d: streamed primary %d; Transform %d", sigma, len(text), chunk, primary, want.Primary)
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr, want
}

// TestBuildMatchesReference: the Builder — fed whole, in chunks, or the
// transform streamed from a suffix array — yields node for node the tree of
// the bit-by-bit construction: on alphabets whose last internal levels
// filter their parent's string (every sigma > 2), on strings long enough for
// the nodes to encode on several goroutines (which is what -race watches
// here), on strings missing some symbols, on every alphabet of 2 to 256
// symbols with short and all-equal texts, and with the sentinel row on either
// side of a 64-bit word boundary.
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
			tr, err := New(data, sigma, p)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceBuild(t, data, 0, sigma, p)
			if !reflect.DeepEqual(tr.root, want) {
				t.Fatalf("sigma=%d n=%d: tree differs from the reference construction", sigma, n)
			}
			counts := make([]int, sigma)
			for _, c := range data {
				counts[c]++
			}
			b, err := NewBuilder(counts, p)
			if err != nil {
				t.Fatal(err)
			}
			for rest := data; len(rest) > 0; {
				k := min(len(rest), 1+rng.Intn(1+n/3))
				if err := b.Write(rest[:k]); err != nil {
					t.Fatal(err)
				}
				rest = rest[k:]
			}
			if chunked, err := b.Build(); err != nil || !reflect.DeepEqual(chunked.root, want) {
				t.Fatalf("sigma=%d n=%d: chunked build differs from the reference construction (%v)", sigma, n, err)
			}
		}
	}
	check := func(text []uint8, sigma int) {
		t.Helper()
		for _, chunk := range []int{1, 3, 64, len(text) + 1} {
			tr, want := buildStreamed(t, text, sigma, chunk, p)
			if tr.Len() != len(text) || !reflect.DeepEqual(tr.root, referenceBuild(t, want.Data, 0, sigma, p)) {
				t.Fatalf("sigma=%d text %v chunk=%d: streamed tree differs from Transform and the reference construction", sigma, text, chunk)
			}
		}
	}
	for sigma := 2; sigma <= 256; sigma++ {
		text := randomData(rng, 1+rng.Intn(63), sigma)
		text[rng.Intn(len(text))] = uint8(sigma - 1) // the deepest path on the one side
		check(text, sigma)
		equal := make([]uint8, 1+rng.Intn(63))
		for i, c := 0, uint8(rng.Intn(sigma)); i < len(equal); i++ {
			equal[i] = c
		}
		check(equal, sigma)
	}
	for _, primary := range []int{63, 64} {
		for tries := 0; ; tries++ {
			text := randomData(rng, 100, 2)
			sa, err := suffixarray.Build(text, 2)
			if err != nil {
				t.Fatal(err)
			}
			if tr, err := bwt.Transform(text, sa); err == nil && tr.Primary == primary {
				check(text, 2)
				break
			}
			if tries == 10000 {
				t.Fatalf("no text of 100 bits has its sentinel in row %d", primary)
			}
		}
	}
	text := randomData(rng, 3*concurrentBuildMin, 4)
	streamed, want := buildStreamed(t, text, 4, 1<<16, p)
	whole, err := New(want.Data, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed.root, whole.root) {
		t.Fatal("the streamed tree differs from the tree over the transform")
	}
}
