// Package wavelet implements the balanced wavelet tree of the BWaveR paper
// (§III-B, Fig. 1 and 2): a string over a small alphabet is represented as a
// binary tree of bit-vectors, where each level splits the remaining alphabet
// in half. A rank query over the string becomes log2(sigma) binary rank
// queries down the tree.
//
// Following the paper, every node bit-vector is encoded as an RRR sequence,
// which compresses the low-entropy bit-vectors a BWT produces. The tree is
// optimised for power-of-two alphabets (2^N symbols, N >= 2), the case of
// genomic sequences, but works for any alphabet size >= 2.
package wavelet

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"bwaver/internal/rrr"
)

// RRRBackend returns p: the RRR parameters every node is encoded with. It
// names the node encoding for callers written when a node could take another.
func RRRBackend(p rrr.Params) rrr.Params { return p }

// node is one wavelet node: an RRR sequence plus the two child subtrees. The
// paper's struct also carries the child alphabets; because our symbols are
// contiguous integer codes the alphabet of a node is fully described by the
// [lo, hi) code range, stored here in place of the two character arrays.
type node struct {
	seq      *rrr.Sequence
	lo, hi   int // alphabet code range covered by this node
	zero, on *node
}

// Tree is an immutable wavelet tree over symbols 0..sigma-1.
// It is safe for concurrent readers.
type Tree struct {
	root   *node
	n      int
	sigma  int
	levels int
}

// New builds a wavelet tree over data, whose symbols must all be in
// [0, sigma), every node an RRR sequence with parameters p. It is a Builder
// fed data in one piece.
func New(data []uint8, sigma int, p rrr.Params) (*Tree, error) {
	if sigma < 2 || sigma > 256 {
		return nil, fmt.Errorf("wavelet: alphabet size %d outside [2,256]", sigma)
	}
	var counts [256]int
	for _, s := range data {
		counts[s]++
	}
	b, err := NewBuilder(counts[:sigma], p)
	if err != nil {
		return nil, err
	}
	if err := b.Write(data); err != nil {
		return nil, err
	}
	return b.Build()
}

// Builder encodes a wavelet tree from its string fed once, in order, in
// chunks of any size, so that the string never has to exist whole: the
// symbol counts, known up front, size every node's bits; each symbol fed sets
// its bit in every node on its root-to-leaf path, at that node's cursor; Build
// encodes the nodes concurrently. A node gets the bits the bit-by-bit
// construction gives it, so the tree is that construction's.
type Builder struct {
	counts []int       // copies of each symbol the string holds
	fed    [256]int    // copies of each symbol fed so far
	nodes  []buildNode // preorder: a node, its zero subtree, its one subtree
	paths  [256][]pathStep
	params rrr.Params
}

// buildNode is one node's bits while the string is fed.
type buildNode struct {
	lo, hi   int // alphabet code range covered by this node
	words    []uint64
	n, at    int // bit length and cursor
	zero, on int // children's indices in Builder.nodes, -1 for a leaf
}

// pathStep is one node on a symbol's root-to-leaf path and the bit the symbol
// sets there.
type pathStep struct {
	node int
	bit  uint64
}

// NewBuilder prepares the tree of a string holding counts[s] copies of each
// symbol s, over the alphabet [0, len(counts)), its nodes to be encoded as
// RRR sequences with parameters p.
func NewBuilder(counts []int, p rrr.Params) (*Builder, error) {
	sigma := len(counts)
	if sigma < 2 || sigma > 256 {
		return nil, fmt.Errorf("wavelet: alphabet size %d outside [2,256]", sigma)
	}
	for s, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("wavelet: negative count %d for symbol %d", c, s)
		}
	}
	b := &Builder{counts: counts, params: p}
	b.addNode(0, sigma)
	for s := range counts {
		for i, lo, hi := 0, 0, sigma; hi-lo > 1; {
			nd := &b.nodes[i]
			if mid := (lo + hi + 1) / 2; s >= mid {
				b.paths[s] = append(b.paths[s], pathStep{node: i, bit: 1})
				i, lo = nd.on, mid
			} else {
				b.paths[s] = append(b.paths[s], pathStep{node: i})
				i, hi = nd.zero, mid
			}
		}
	}
	return b, nil
}

// addNode appends the node for the code range [lo, hi) and its subtrees, and
// returns its index, -1 for a leaf: a single symbol needs no bit-vector.
func (b *Builder) addNode(lo, hi int) int {
	if hi-lo <= 1 {
		return -1
	}
	n := 0
	for _, c := range b.counts[lo:hi] {
		n += c
	}
	i := len(b.nodes)
	b.nodes = append(b.nodes, buildNode{lo: lo, hi: hi, words: make([]uint64, (n+63)/64), n: n})
	mid := (lo + hi + 1) / 2
	zero := b.addNode(lo, mid)
	on := b.addNode(mid, hi)
	b.nodes[i].zero, b.nodes[i].on = zero, on
	return i
}

// Write feeds the next symbols of the string. A symbol outside the alphabet,
// or one copy of a symbol more than its count, is refused before any bit of
// the chunk is set.
func (b *Builder) Write(chunk []uint8) error {
	var tally [256]int
	for _, s := range chunk {
		tally[s]++
	}
	for s, c := range tally {
		if c > 0 && (s >= len(b.counts) || b.fed[s]+c > b.counts[s]) {
			return b.refuse(chunk)
		}
	}
	for s, c := range tally[:len(b.counts)] {
		b.fed[s] += c
	}
	for _, s := range chunk {
		for _, st := range b.paths[s] {
			nd := &b.nodes[st.node]
			nd.words[nd.at>>6] |= st.bit << uint(nd.at&63)
			nd.at++
		}
	}
	return nil
}

// refuse names the first symbol of chunk that Write cannot take.
func (b *Builder) refuse(chunk []uint8) error {
	pos := 0
	for s := range b.counts {
		pos += b.fed[s]
	}
	fed := b.fed
	for i, s := range chunk {
		if int(s) >= len(b.counts) {
			return fmt.Errorf("wavelet: symbol %d at position %d outside alphabet [0,%d)", s, pos+i, len(b.counts))
		}
		if fed[s]++; fed[s] > b.counts[s] {
			return fmt.Errorf("wavelet: symbol %d at position %d is one copy more than its count %d", s, pos+i, b.counts[s])
		}
	}
	panic("wavelet: refuse found every symbol of the chunk acceptable")
}

// concurrentBuildMin is the string length from which the nodes are encoded on
// several goroutines: below it the encoding is too short to pay for them.
const concurrentBuildMin = 1 << 16

// Build encodes every node once all the symbols the counts promise have been
// fed, on up to GOMAXPROCS goroutines that claim nodes in preorder, the
// largest first. A node's words are dropped as soon as it is encoded. The
// Builder must not be used afterwards.
func (b *Builder) Build() (*Tree, error) {
	n := 0
	for s, c := range b.counts {
		if b.fed[s] != c {
			return nil, fmt.Errorf("wavelet: %d copies of symbol %d fed, the counts promise %d", b.fed[s], s, c)
		}
		n += c
	}
	seqs := make([]*rrr.Sequence, len(b.nodes))
	errs := make([]error, len(b.nodes))
	var next atomic.Int64
	encode := func() {
		for i := int(next.Add(1) - 1); i < len(b.nodes); i = int(next.Add(1) - 1) {
			nd := &b.nodes[i]
			seqs[i], errs[i] = rrr.FromWords(nd.words, nd.n, b.params)
			nd.words = nil
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(b.nodes))
	if n < concurrentBuildMin {
		workers = 1
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			encode()
		}()
	}
	encode()
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	nodes := make([]*node, len(b.nodes))
	for i, bn := range b.nodes {
		nodes[i] = &node{seq: seqs[i], lo: bn.lo, hi: bn.hi}
	}
	t := &Tree{n: n, sigma: len(b.counts)}
	for i, bn := range b.nodes {
		if bn.zero >= 0 {
			nodes[i].zero = nodes[bn.zero]
		}
		if bn.on >= 0 {
			nodes[i].on = nodes[bn.on]
		}
	}
	if len(nodes) > 0 {
		t.root = nodes[0]
	}
	for 1<<uint(t.levels) < t.sigma {
		t.levels++
	}
	return t, nil
}

// Len returns the length of the underlying string.
func (t *Tree) Len() int { return t.n }

// Sigma returns the alphabet size.
func (t *Tree) Sigma() int { return t.sigma }

// Levels returns the tree depth, ceil(log2(sigma)).
func (t *Tree) Levels() int { return t.levels }

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
		a, b := nd.seq.Rank1Pair(i, j)
		if int(sym) >= (nd.lo+nd.hi+1)/2 {
			i, j, nd = a, b, nd.on
		} else {
			i, j, nd = i-a, j-b, nd.zero
		}
	}
	return i, j
}

// PairQuery is one RankPair of a group: the symbol and the positions
// I <= J in, Rank(Sym, I) and Rank(Sym, J) out, in I and J.
type PairQuery struct {
	I, J int
	Sym  uint8
}

// Group is RankPairs' scratch: each query's node at the current level and
// its record head. Reused across calls, it grows to the largest group once.
type Group struct {
	at    []*node
	heads []rrr.PairHead
}

// RankPairs answers every query of q as RankPair does, with the group
// walking down the tree level by level: at each level the record head of
// every query's node is loaded before any record is decoded. The heads'
// loads are independent, so on a structure out of cache their misses
// overlap where one RankPair after another would wait out each in turn.
func (t *Tree) RankPairs(q []PairQuery, g *Group) {
	if cap(g.at) < len(q) {
		g.at, g.heads = make([]*node, len(q)), make([]rrr.PairHead, len(q))
	}
	at, heads := g.at[:len(q)], g.heads[:len(q)]
	for k := range q {
		t.checkRank(q[k].I)
		t.checkRank(q[k].J)
		if int(q[k].Sym) >= t.sigma {
			panic(fmt.Sprintf("wavelet: symbol %d outside alphabet [0,%d)", q[k].Sym, t.sigma))
		}
		at[k] = t.root
	}
	for range t.levels {
		for k, nd := range at {
			if nd != nil {
				nd.seq.LoadPair(&heads[k], q[k].I, q[k].J)
			}
		}
		for k, nd := range at {
			if nd == nil {
				continue
			}
			a, b := nd.seq.DecodePair(&heads[k])
			if qk := &q[k]; int(qk.Sym) >= (nd.lo+nd.hi+1)/2 {
				qk.I, qk.J, at[k] = a, b, nd.on
			} else {
				qk.I, qk.J, at[k] = qk.I-a, qk.J-b, nd.zero
			}
		}
	}
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
	a, b := nd.seq.Rank1Pair(i, j)
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
		ones, next := nd.seq.Rank1Pair(i, i+1)
		if next > ones {
			i, lo, nd = ones, (nd.lo+nd.hi+1)/2, nd.on
		} else {
			i, nd = i-ones, nd.zero
		}
	}
	return uint8(lo), i
}

// Count returns the total number of occurrences of sym.
func (t *Tree) Count(sym uint8) int {
	if int(sym) >= t.sigma {
		return 0
	}
	return t.Rank(sym, t.n)
}

// SizeBytes returns the summed footprint of all node bit-vectors plus the
// tree skeleton. This excludes the shared global rank table, matching the
// paper's accounting ("the permutations array and class offsets array are
// stored only once, and shared among the RRRs encoding all the wavelet
// nodes"); add SharedSizeBytes once per index.
func (t *Tree) SizeBytes() int {
	return t.sumNodes(func(nd *node) int { return nd.seq.SizeBytes() })
}

// PackedSizeBytes is SizeBytes with every node counted in the paper's array
// layout (rrr.Sequence.PackedSizeBytes) instead of the host's superblock
// records: the footprint of the tree on a device.
func (t *Tree) PackedSizeBytes() int {
	return t.sumNodes(func(nd *node) int { return nd.seq.PackedSizeBytes() })
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
// for a tree without nodes.
func (t *Tree) SharedSizeBytes() int {
	if t.root == nil {
		return 0
	}
	return t.root.seq.SharedSizeBytes()
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
		n := nd.seq.Len()
		ones := nd.seq.Rank1(n)
		st := NodeStat{
			Lo: nd.lo, Hi: nd.hi, Depth: depth,
			Bits: n, Ones: ones, SizeBytes: nd.seq.SizeBytes(),
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
