// Package wavelet implements the balanced wavelet tree of the BWaveR paper
// (§III-B, Fig. 1 and 2): a string over a small alphabet is represented as a
// binary tree of bit-vectors, where each level splits the remaining alphabet
// in half. A rank query over the string becomes log2(sigma) binary rank
// queries down the tree.
//
// Following the paper, node bit-vectors are encoded as RRR sequences by
// default, which compresses the low-entropy bit-vectors a BWT produces; a
// plain (uncompressed) backend is provided for the space/time ablation
// called out in DESIGN.md. The tree is optimised for power-of-two alphabets
// (2^N symbols, N >= 2), the case of genomic sequences, but works for any
// alphabet size >= 2.
package wavelet

import (
	"errors"
	"fmt"
	"math"

	"bwaver/internal/bitvec"
	"bwaver/internal/rrr"
)

// RankVector is the bit-vector contract a wavelet node needs. Both
// rrr.Sequence and bitvec.Vector satisfy it.
type RankVector interface {
	Len() int
	Bit(i int) bool
	Rank1(i int) int
	Rank0(i int) int
	Select1(k int) int
	SizeBytes() int
}

var (
	_ RankVector = (*rrr.Sequence)(nil)
	_ RankVector = (*bitvec.Vector)(nil)
)

// Backend constructs the bit-vector of one wavelet node.
type Backend interface {
	// Build encodes the n bits packed LSB-first in words (bit i is bit i%64
	// of words[i/64]). It may be called from several goroutines at once.
	Build(words []uint64, n int) (RankVector, error)
	// Name identifies the backend in stats output.
	Name() string
}

type rrrBackend struct{ p rrr.Params }

func (b rrrBackend) Build(words []uint64, n int) (RankVector, error) {
	return rrr.FromWords(words, n, b.p)
}
func (b rrrBackend) Name() string {
	return fmt.Sprintf("rrr(b=%d,sf=%d)", b.p.BlockSize, b.p.SuperblockFactor)
}

// RRRBackend returns the paper's backend: every node encoded as an RRR
// sequence with the given parameters.
func RRRBackend(p rrr.Params) Backend { return rrrBackend{p} }

type plainBackend struct{}

func (plainBackend) Build(words []uint64, n int) (RankVector, error) {
	bld := bitvec.NewBuilder(n)
	for i := 0; i < n; i += 64 {
		bld.AppendWord(words[i/64], min(64, n-i))
	}
	return bld.Build(), nil
}
func (plainBackend) Name() string { return "plain" }

// PlainBackend returns an uncompressed bit-vector backend, the ablation
// baseline.
func PlainBackend() Backend { return plainBackend{} }

// node is one wavelet node: a bit-vector plus the two child subtrees. The
// paper's struct also carries the child alphabets; because our symbols are
// contiguous integer codes the alphabet of a node is fully described by the
// [lo, hi) code range, stored here in place of the two character arrays.
type node struct {
	vec RankVector
	// rrr is vec's concrete form under the RRR backend. The rank walks call
	// through it: direct calls, and both ends of a range in one Rank1Pair.
	rrr      *rrr.Sequence
	lo, hi   int // alphabet code range covered by this node
	zero, on *node
}

// newNode is the one constructor of nodes, for trees built and trees read
// back alike, so both take the same rank path.
func newNode(vec RankVector, lo, hi int) *node {
	nd := &node{vec: vec, lo: lo, hi: hi}
	nd.rrr, _ = vec.(*rrr.Sequence)
	return nd
}

func (nd *node) rank1Pair(i, j int) (int, int) {
	if nd.rrr != nil {
		return nd.rrr.Rank1Pair(i, j)
	}
	a := nd.vec.Rank1(i)
	if j == i {
		return a, a
	}
	return a, nd.vec.Rank1(j)
}

// Tree is an immutable wavelet tree over symbols 0..sigma-1.
// It is safe for concurrent readers.
type Tree struct {
	root    *node
	n       int
	sigma   int
	levels  int
	backend string
}

// New builds a wavelet tree over data, whose symbols must all be in
// [0, sigma). A nil backend defaults to the paper's RRR backend with
// rrr.DefaultParams.
func New(data []uint8, sigma int, backend Backend) (*Tree, error) {
	if sigma < 2 {
		return nil, fmt.Errorf("wavelet: alphabet size %d must be >= 2", sigma)
	}
	if backend == nil {
		backend = RRRBackend(rrr.DefaultParams)
	}
	for i, s := range data {
		if int(s) >= sigma {
			return nil, fmt.Errorf("wavelet: symbol %d at position %d outside alphabet [0,%d)", s, i, sigma)
		}
	}
	levels := 0
	for 1<<uint(levels) < sigma {
		levels++
	}
	root, err := build(data, len(data), 0, sigma, backend)
	if err != nil {
		return nil, err
	}
	return &Tree{root: root, n: len(data), sigma: sigma, levels: levels, backend: backend.Name()}, nil
}

// concurrentBuildMin is the node length from which a node's two subtrees are
// built on two goroutines: below it the encoding is too short to pay for one.
const concurrentBuildMin = 1 << 16

// build encodes the node for the code range [lo, hi) and, recursively, its
// subtrees. The node's string is the n symbols of data that lie in the range,
// in order; data may hold others, which are skipped. A node whose grandchildren
// are all leaves therefore hands data on as it is, and each child reads its
// half of the symbols out of it once; only a child that has subtrees of its
// own to feed is given a partition holding its symbols alone, so that a level
// of the tree still costs one pass over the string.
func build(data []uint8, n, lo, hi int, backend Backend) (*node, error) {
	if hi-lo <= 1 {
		return nil, nil // leaf: a single symbol needs no bit-vector
	}
	mid := (lo + hi + 1) / 2
	words := make([]uint64, (n+63)/64)
	at := 0
	for _, s := range data {
		if int(s) >= lo && int(s) < hi {
			if int(s) >= mid {
				words[at>>6] |= 1 << uint(at&63)
			}
			at++
		}
	}
	vec, err := backend.Build(words, n)
	if err != nil {
		return nil, err
	}
	nd := newNode(vec, lo, hi)
	if hi-lo <= 2 {
		return nd, nil // both children are leaves
	}
	nOnes := vec.Rank1(n)
	zeroData, oneData := data, data
	if hi-lo > 4 {
		zeroData, oneData = make([]uint8, 0, n-nOnes), make([]uint8, 0, nOnes)
		for _, s := range data {
			if int(s) >= mid && int(s) < hi {
				oneData = append(oneData, s)
			} else if int(s) >= lo && int(s) < mid {
				zeroData = append(zeroData, s)
			}
		}
	}
	var zeroErr error
	done := make(chan struct{})
	buildZero := func() {
		defer close(done)
		nd.zero, zeroErr = build(zeroData, n-nOnes, lo, mid, backend)
	}
	if n >= concurrentBuildMin {
		go buildZero()
	} else {
		buildZero()
	}
	nd.on, err = build(oneData, nOnes, mid, hi, backend)
	<-done
	if err = errors.Join(zeroErr, err); err != nil {
		return nil, err
	}
	return nd, nil
}

// Len returns the length of the underlying string.
func (t *Tree) Len() int { return t.n }

// Sigma returns the alphabet size.
func (t *Tree) Sigma() int { return t.sigma }

// Levels returns the tree depth, ceil(log2(sigma)).
func (t *Tree) Levels() int { return t.levels }

// BackendName reports which bit-vector backend encodes the nodes.
func (t *Tree) BackendName() string { return t.backend }

// checkRank panics unless i is a rank position of the string.
func (t *Tree) checkRank(i int) {
	if i < 0 || i > t.n {
		panic(fmt.Sprintf("wavelet: rank position %d out of range [0,%d]", i, t.n))
	}
}

// Rank returns the number of occurrences of sym in positions [0, i) —
// the rank query of Fig. 2, resolved by log2(sigma) binary ranks.
func (t *Tree) Rank(sym uint8, i int) int {
	i, _ = t.RankPair(sym, i, i)
	return i
}

// RankPair returns Rank(sym, i) and Rank(sym, j) from one walk down the
// tree: the two positions take the same branch at every level, so each node
// answers both with one Rank1Pair — one superblock visit per level when
// i <= j are the two ends of a narrowed backward-search range.
func (t *Tree) RankPair(sym uint8, i, j int) (int, int) {
	t.checkRank(i)
	t.checkRank(j)
	if int(sym) >= t.sigma {
		panic(fmt.Sprintf("wavelet: symbol %d outside alphabet [0,%d)", sym, t.sigma))
	}
	for nd := t.root; nd != nil; {
		a, b := nd.rank1Pair(i, j)
		if int(sym) >= (nd.lo+nd.hi+1)/2 {
			i, j, nd = a, b, nd.on
		} else {
			i, j, nd = i-a, j-b, nd.zero
		}
	}
	return i, j
}

// RankAll computes Rank(sym, i) for every symbol in one traversal, writing
// the counts into counts[0:sigma]. A single walk resolves all sigma ranks
// with one binary rank per node (Rank1; the zero-side count is its
// complement), so for sigma=4 the whole-alphabet query costs 3 bit-vector
// ranks instead of the 8 that sigma separate Rank calls would issue. This is
// the workhorse of the bidirectional index's extension step, which needs
// occurrence counts for all symbols at the same position.
func (t *Tree) RankAll(i int, counts []int) {
	t.RankAllPair(i, i, counts, counts)
}

// RankAllPair is RankAll at two positions in one traversal, lo[0:sigma]
// taking the counts at i and hi[0:sigma] those at j, with one Rank1Pair per
// node.
func (t *Tree) RankAllPair(i, j int, lo, hi []int) {
	t.checkRank(i)
	t.checkRank(j)
	if len(lo) < t.sigma || len(hi) < t.sigma {
		panic(fmt.Sprintf("wavelet: RankAll counts slice too short: %d < %d", min(len(lo), len(hi)), t.sigma))
	}
	rankAllRec(t.root, i, j, lo, hi)
}

func rankAllRec(nd *node, i, j int, lo, hi []int) {
	if nd == nil {
		return
	}
	a, b := nd.rank1Pair(i, j)
	mid := (nd.lo + nd.hi + 1) / 2
	if nd.zero == nil {
		lo[nd.lo], hi[nd.lo] = i-a, j-b
	} else {
		rankAllRec(nd.zero, i-a, j-b, lo, hi)
	}
	if nd.on == nil {
		lo[mid], hi[mid] = a, b
	} else {
		rankAllRec(nd.on, a, b, lo, hi)
	}
}

// Access returns the symbol at position i.
func (t *Tree) Access(i int) uint8 {
	sym, _ := t.AccessRank(i)
	return sym
}

// AccessRank returns the symbol at position i and its rank there,
// Rank(sym, i), from one descent: the position a descent to the symbol's
// leaf ends on is the number of its copies before i. The LF mapping of an
// FM-index needs exactly this pair.
func (t *Tree) AccessRank(i int) (uint8, int) {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("wavelet: index %d out of range [0,%d)", i, t.n))
	}
	lo := 0
	for nd := t.root; nd != nil; {
		// Bit i is the rank difference across it: one record walk and one
		// block decode, where Bit and Rank1 would each do their own.
		ones, next := nd.rank1Pair(i, i+1)
		if next > ones {
			i, lo, nd = ones, (nd.lo+nd.hi+1)/2, nd.on
		} else {
			i, nd = i-ones, nd.zero
		}
	}
	return uint8(lo), i
}

// Select returns the position of the k-th occurrence of sym (k >= 1), or -1
// if sym occurs fewer than k times. It descends to the leaf and maps the
// position back up with binary selects.
func (t *Tree) Select(sym uint8, k int) int {
	if int(sym) >= t.sigma || k <= 0 {
		return -1
	}
	return selectRec(t.root, sym, k)
}

func selectRec(nd *node, sym uint8, k int) int {
	if nd == nil {
		return k - 1 // leaf: the k-th occurrence is at position k-1
	}
	mid := (nd.lo + nd.hi + 1) / 2
	if int(sym) >= mid {
		p := selectRec(nd.on, sym, k)
		if p < 0 {
			return -1
		}
		return nd.vec.Select1(p + 1)
	}
	p := selectRec(nd.zero, sym, k)
	if p < 0 {
		return -1
	}
	return select0(nd.vec, p+1)
}

// select0 finds the position of the k-th zero bit via binary search on
// Rank0; plain vectors have a native Select0 but the RankVector contract
// keeps the surface minimal.
func select0(v RankVector, k int) int {
	zeros := v.Len() - v.Rank1(v.Len())
	if k > zeros {
		return -1
	}
	lo, hi := 0, v.Len()-1
	for lo < hi {
		mid := (lo + hi) / 2
		if v.Rank0(mid+1) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Count returns the total number of occurrences of sym.
func (t *Tree) Count(sym uint8) int {
	if int(sym) >= t.sigma {
		return 0
	}
	return t.Rank(sym, t.n)
}

// SizeBytes returns the summed footprint of all node bit-vectors plus the
// tree skeleton. For the RRR backend this excludes the shared global rank
// table, matching the paper's accounting ("the permutations array and class
// offsets array are stored only once, and shared among the RRRs encoding all
// the wavelet nodes"); add SharedSizeBytes once per index.
func (t *Tree) SizeBytes() int {
	return t.sumNodes(func(nd *node) int { return nd.vec.SizeBytes() })
}

// PackedSizeBytes is SizeBytes with every RRR node counted in the paper's
// array layout (rrr.Sequence.PackedSizeBytes) instead of the host's
// superblock records: the footprint of the tree on a device.
func (t *Tree) PackedSizeBytes() int {
	return t.sumNodes(func(nd *node) int {
		if nd.rrr != nil {
			return nd.rrr.PackedSizeBytes()
		}
		return nd.vec.SizeBytes()
	})
}

func (t *Tree) sumNodes(size func(*node) int) int {
	total := 0
	var walk func(*node)
	walk = func(nd *node) {
		if nd == nil {
			return
		}
		total += size(nd) + 32 // struct overhead: pointers + range
		walk(nd.zero)
		walk(nd.on)
	}
	walk(t.root)
	return total
}

// SharedSizeBytes returns the size of the shared RRR global rank table, or 0
// for the plain backend.
func (t *Tree) SharedSizeBytes() int {
	if nd := t.root; nd != nil {
		if s, ok := nd.vec.(*rrr.Sequence); ok {
			return s.SharedSizeBytes()
		}
	}
	return 0
}

// NodeStat describes one wavelet node for diagnostics: which alphabet
// slice it distinguishes, how long its bit-vector is, how it compressed,
// and its zero-order entropy — the quantity that drives RRR's offset size
// (paper §III-B: "the size of the offset field ... depends only on the
// zero-order empirical entropy of the bit sequence").
type NodeStat struct {
	// Lo and Hi delimit the alphabet code range the node covers.
	Lo, Hi int
	// Depth is the node's level, root = 0.
	Depth int
	// Bits is the bit-vector length, Ones its popcount.
	Bits, Ones int
	// SizeBytes is the encoded size (excluding any shared table).
	SizeBytes int
	// Entropy is the bit-vector's zero-order entropy in bits per bit.
	Entropy float64
}

// NodeStats returns per-node diagnostics in depth-first order.
func (t *Tree) NodeStats() []NodeStat {
	var out []NodeStat
	var walk func(nd *node, depth int)
	walk = func(nd *node, depth int) {
		if nd == nil {
			return
		}
		n := nd.vec.Len()
		ones := nd.vec.Rank1(n)
		st := NodeStat{
			Lo: nd.lo, Hi: nd.hi, Depth: depth,
			Bits: n, Ones: ones, SizeBytes: nd.vec.SizeBytes(),
		}
		if n > 0 && ones > 0 && ones < n {
			p := float64(ones) / float64(n)
			st.Entropy = -p*math.Log2(p) - (1-p)*math.Log2(1-p)
		}
		out = append(out, st)
		walk(nd.zero, depth+1)
		walk(nd.on, depth+1)
	}
	walk(t.root, 0)
	return out
}

// NodeCount returns the number of internal nodes (bit-vectors) in the tree.
func (t *Tree) NodeCount() int {
	count := 0
	var walk func(*node)
	walk = func(nd *node) {
		if nd == nil {
			return
		}
		count++
		walk(nd.zero)
		walk(nd.on)
	}
	walk(t.root)
	return count
}
