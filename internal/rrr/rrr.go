// Package rrr implements the succinct bit-vector of Raman, Raman and Rao as
// specialised by the BWaveR paper (§III-B, Fig. 3, Algorithm 1).
//
// A bit sequence B[0,N) is split into blocks of b bits, grouped into
// superblocks of sf blocks (sf is the "superblock factor"). Per block the
// structure stores a 4-bit class (the block's popcount) and a variable-width
// offset identifying the block within its class; per superblock it stores
// the running rank (partial sum) and the bit position of the superblock's
// first offset field. All blocks of the same size share one global rank
// table of sorted permutations. Rank costs O(sf); space approaches the
// zero-order entropy of the sequence, which is what makes BWT sequences —
// full of symbol runs — so compressible.
package rrr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Params selects the time/space trade-off of a Sequence.
type Params struct {
	// BlockSize is b, the bits per block (paper hardware fixes b = 15).
	BlockSize int
	// SuperblockFactor is sf, the blocks per superblock (paper uses >= 50).
	SuperblockFactor int
}

// Validate checks the parameters against the supported ranges.
func (p Params) Validate() error {
	if p.BlockSize < minBlockSize || p.BlockSize > maxBlockSize {
		return fmt.Errorf("rrr: block size %d out of range [%d,%d]", p.BlockSize, minBlockSize, maxBlockSize)
	}
	if p.SuperblockFactor < 1 {
		return fmt.Errorf("rrr: superblock factor %d must be >= 1", p.SuperblockFactor)
	}
	return nil
}

// DefaultParams are the parameters the paper fixes for its hardware
// implementation: b = 15, sf = 50.
var DefaultParams = Params{BlockSize: 15, SuperblockFactor: 50}

// Sequence is an immutable RRR-encoded bit-vector. It is safe for
// concurrent readers.
type Sequence struct {
	n      int // number of bits
	b      int
	sf     int
	nBlk   int // ceil(n/b)
	nSuper int // ceil(nBlk/sf)
	// offBits is lambda, the summed width of all offset fields (the padding
	// that byte-aligns each superblock's fields is not part of it).
	offBits int

	table *globalRankTable

	// divB and divSuper are ceil(2^64/b) and ceil(2^64/(b*sf)): the high word
	// of their product with i < 2^32 is i/b and i/(b*sf) exactly (Lemire),
	// which spares every rank two hardware divisions.
	divB, divSuper uint64

	// recs holds one record per superblock, back to back, so that a rank
	// reads one or two adjacent cache lines:
	//
	//	partial sum  uint32, little endian: the rank before the superblock
	//	classes      ceil(sf/2) bytes: one 4-bit class per block, block k of
	//	             the superblock in byte k/2, even k in the low nibble
	//	offsets      the superblock's variable-width offset fields, LSB-first,
	//	             zero-padded to a whole byte
	//
	// The class field of a short last superblock ends with its last block.
	// A closing record of a partial sum alone follows: it holds the total
	// rank, and its 4 bytes keep a 4-byte load at the last offset byte inside
	// the buffer.
	recs []byte
	// dir[s] is the position of superblock s's record in recs, and
	// dir[nSuper] that of the closing record. It takes the place of the
	// paper's "set sum" array.
	dir []uint32
}

var errTooLong = errors.New("rrr: sequence longer than 2^32-1 bits, or records beyond 2^32-1 bytes, unsupported")

// BitSource yields bit i of the input; it is how builders avoid
// materialising a []bool for multi-megabyte inputs.
type BitSource func(i int) bool

// New encodes n bits from src with the given parameters.
func New(src BitSource, n int, p Params) (*Sequence, error) {
	return newFromBlocks(n, p, func(blk int) uint16 { return blockValue(src, blk, p.BlockSize, n) })
}

// FromWords encodes the n bits packed LSB-first in words — bit i is bit i%64
// of words[i/64], and bits past n are ignored — into the sequence New builds
// from the same bits. A block is cut out of its one or two words by shift and
// mask, which is what makes it the constructor for multi-megabyte inputs.
func FromWords(words []uint64, n int, p Params) (*Sequence, error) {
	if n > 64*len(words) {
		return nil, fmt.Errorf("rrr: %d bits do not fit in %d words", n, len(words))
	}
	b := p.BlockSize
	return newFromBlocks(n, p, func(blk int) uint16 {
		pos := blk * b
		i, shift := pos>>6, uint(pos&63)
		v := words[i] >> shift
		if shift+uint(b) > 64 && i+1 < len(words) {
			v |= words[i+1] << (64 - shift)
		}
		return uint16(v) & (1<<uint(min(b, n-pos)) - 1)
	})
}

// newFromBlocks encodes n bits, of which block(blk) returns block blk as a
// BlockSize-bit LSB-first value, zero-padded past the end of the sequence.
func newFromBlocks(n int, p Params, block func(blk int) uint16) (*Sequence, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("rrr: negative length %d", n)
	}
	// The serialized header, the partial sums and locate's multiply-based
	// division all hold a bit position in 32 bits.
	if uint64(n) > math.MaxUint32 {
		return nil, errTooLong
	}
	table, err := tableFor(p.BlockSize)
	if err != nil {
		return nil, err
	}
	s := newSequence(n, p, table)
	err = s.encode(func(blk int) (int, int) {
		v := block(blk)
		return bits.OnesCount16(v), table.OffsetOf(v)
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func newSequence(n int, p Params, table *globalRankTable) *Sequence {
	b, sf := p.BlockSize, p.SuperblockFactor
	nBlk := (n + b - 1) / b
	return &Sequence{
		n: n, b: b, sf: sf, nBlk: nBlk, nSuper: (nBlk + sf - 1) / sf,
		table: table,
		divB:  math.MaxUint64/uint64(b) + 1, divSuper: math.MaxUint64/uint64(b*sf) + 1,
	}
}

// encode lays the records out. block(blk) returns block blk's class and its
// offset within the class; it is called for every block in order, twice: the
// first pass fills the directory, so that the record buffer is allocated
// once at its final size, and the second fills the records. The partial sums
// and lambda fit their 32-bit fields because n does: a block has no more
// ones, and no wider an offset field, than it has bits.
func (s *Sequence) encode(block func(blk int) (class, offset int)) error {
	s.dir = make([]uint32, s.nSuper+1)
	at := uint64(0)
	for super := 0; super <= s.nSuper; super++ {
		if at > math.MaxUint32 {
			return errTooLong
		}
		s.dir[super] = uint32(at)
		width := 0
		for blk := super * s.sf; blk < (super+1)*s.sf && blk < s.nBlk; blk++ {
			c, _ := block(blk)
			width += s.table.Width(c)
		}
		s.offBits += width
		at += uint64(4 + s.classBytes(super) + (width+7)/8)
	}
	s.recs = make([]byte, at)

	sum := 0
	for super := 0; super <= s.nSuper; super++ {
		binary.LittleEndian.PutUint32(s.recs[s.dir[super]:], uint32(sum))
		_, body, pos := s.record(super)
		for k, blk := 0, super*s.sf; k < s.sf && blk < s.nBlk; k, blk = k+1, blk+1 {
			c, o := block(blk)
			setNibble(body, k, c)
			if w := s.table.Width(c); w > 0 {
				putBits(body, pos, o)
				pos += w
			}
			sum += c
		}
	}
	return nil
}

// blockValue extracts block blk as a b-bit LSB-first value, zero-padded past
// the end of the sequence.
func blockValue(src BitSource, blk, b, n int) uint16 {
	var v uint16
	base := blk * b
	end := base + b
	if end > n {
		end = n
	}
	for i := base; i < end; i++ {
		if src(i) {
			v |= 1 << uint(i-base)
		}
	}
	return v
}

// nibble returns 4-bit field k of buf, even k in the low half of byte k/2 —
// the packing of the class fields, in a record and in the serialized array.
func nibble(buf []byte, k int) int { return int(buf[k>>1]>>(uint(k&1)*4)) & 0xF }

func setNibble(buf []byte, k, c int) { buf[k>>1] |= uint8(c) << (uint(k&1) * 4) }

// getBits loads the w <= 16 bits at bit position pos of an LSB-first byte
// stream. It reads the 4 bytes from pos/8 on, which buf must hold.
func getBits(buf []byte, pos int, w uint8) int {
	return int(binary.LittleEndian.Uint32(buf[pos>>3:])>>uint(pos&7)) & (1<<w - 1)
}

// putBits ORs v, of at most 16 bits, into the stream at bit position pos,
// with getBits' 4-byte footprint.
func putBits(buf []byte, pos, v int) {
	p := buf[pos>>3:]
	binary.LittleEndian.PutUint32(p, binary.LittleEndian.Uint32(p)|uint32(v)<<uint(pos&7))
}

// locate splits bit position i into its block and superblock.
func (s *Sequence) locate(i int) (blk, super int) {
	q, _ := bits.Mul64(s.divB, uint64(i))
	r, _ := bits.Mul64(s.divSuper, uint64(i))
	return int(q), int(r)
}

// classBytes is the size of superblock super's class field: a nibble per
// block, of which a last superblock may have fewer than sf and the closing
// record has none.
func (s *Sequence) classBytes(super int) int {
	return (max(0, min(s.sf, s.nBlk-super*s.sf)) + 1) / 2
}

// record returns the rank before superblock super, the body of its record —
// the class bytes, then the offset fields — and the bit position in the body
// of the first offset field.
func (s *Sequence) record(super int) (sum int, body []byte, offsets int) {
	rec := s.recs[s.dir[super]:]
	return int(binary.LittleEndian.Uint32(rec)), rec[4:], 8 * s.classBytes(super)
}

// scan sums the classes (ones) and the offset-field widths of blocks
// [from, to) of a record. It is the one reader of the class fields: Rank1,
// Rank1Pair and Bit all walk a record through it. Whole class bytes
// go through the packed LUTs two blocks at a time; from and to may each
// leave a stray nibble.
func (s *Sequence) scan(body []byte, from, to int) (ones, width int) {
	t := s.table
	k := from
	if k&1 == 1 && k < to {
		c := body[k>>1] >> 4
		ones, width = int(c), int(t.width[c])
		k++
	}
	for ; k+2 <= to; k += 2 {
		v := body[k>>1]
		ones += int(t.classSum[v])
		width += int(t.widthSum[v])
	}
	if k < to {
		c := body[k>>1] & 0xF
		ones += int(c)
		width += int(t.width[c])
	}
	return ones, width
}

// block decodes block k of a record, whose offset field is at bit position
// pos of the body, through the global rank table.
func (s *Sequence) block(body []byte, k, pos int) uint16 {
	c := nibble(body, k)
	return s.table.Block(c, getBits(body, pos, s.table.width[c]))
}

// prefix counts the ones among the first rem bits of that block.
func (s *Sequence) prefix(body []byte, k, pos, rem int) int {
	if rem == 0 {
		return 0 // and k may be one past the superblock's last block
	}
	return bits.OnesCount16(s.block(body, k, pos) & (1<<uint(rem) - 1))
}

// Len returns the number of bits in the sequence.
func (s *Sequence) Len() int { return s.n }

// ones returns the total number of set bits.
func (s *Sequence) ones() int {
	sum, _, _ := s.record(s.nSuper)
	return sum
}

// Rank1 returns the number of 1 bits strictly before position i
// (prefix-exclusive, zero-based). It is Algorithm 1 of the paper: resolve
// the enclosing superblock's partial sum, add the classes of the preceding
// blocks, then decode the current block through the global rank table and
// popcount its prefix.
func (s *Sequence) Rank1(i int) int {
	if i < 0 || i > s.n {
		panic(fmt.Sprintf("rrr: rank position %d out of range [0,%d]", i, s.n))
	}
	blk, super := s.locate(i)
	sum, body, pos := s.record(super)
	return s.rankIn(i, blk, super, sum, body, pos)
}

// Rank1Pair returns Rank1(i) and Rank1(j). When i <= j fall in one
// superblock — the two ends of a backward-search range, once it has
// narrowed — they share the record and one scan, the walk to i's block being
// the first part of the walk to j's, and one decode if they share the block.
// Any other pair is two independent ranks.
func (s *Sequence) Rank1Pair(i, j int) (int, int) {
	bi, super := s.locate(i)
	bj, superJ := s.locate(j)
	if i < 0 || i > j || j > s.n || superJ != super {
		return s.Rank1(i), s.Rank1(j)
	}
	sum, body, pos := s.record(super)
	return s.pair(i, j, bi, bj, super, sum, body, pos)
}

// pair finishes Rank1Pair(i, j) for i <= j in blocks bi <= bj of superblock
// super, from its record: the partial sum, the body and the bit position of
// the first offset field in it.
func (s *Sequence) pair(i, j, bi, bj, super, sum int, body []byte, pos int) (int, int) {
	ki, kj := bi-super*s.sf, bj-super*s.sf
	remI, remJ := i-bi*s.b, j-bj*s.b
	ones, width := s.scan(body, 0, ki)
	ri, pos := sum+ones, pos+width
	if ki == kj {
		if remJ == 0 {
			return ri, ri
		}
		v := s.block(body, ki, pos)
		return ri + bits.OnesCount16(v&(1<<uint(remI)-1)), ri + bits.OnesCount16(v&(1<<uint(remJ)-1))
	}
	ones, width = s.scan(body, ki, kj)
	return ri + s.prefix(body, ki, pos, remI), ri + ones + s.prefix(body, kj, pos+width, remJ)
}

// PairHead is the head of a rank pair's records: where the records of the
// superblocks holding i and j start, and their partial sums — the loads a
// rank waits on once the records are out of cache. LoadPair reads it and
// DecodePair finishes Rank1Pair from it, so that a caller holding many pairs
// can load every head before decoding any: the loads are independent, and
// their misses overlap instead of queueing one behind the other.
type PairHead struct {
	i, j       int
	sumI, sumJ int
	recI, recJ uint32
}

// LoadPair reads the record heads of Rank1Pair(i, j), 0 <= i <= j <= Len(),
// into h: one record's when both fall in one superblock, else two.
func (s *Sequence) LoadPair(h *PairHead, i, j int) {
	if i < 0 || i > j || j > s.n {
		panic(fmt.Sprintf("rrr: rank pair (%d,%d) out of order or range [0,%d]", i, j, s.n))
	}
	_, super := s.locate(i)
	_, superJ := s.locate(j)
	h.i, h.j = i, j
	h.recI = s.dir[super]
	h.sumI = int(binary.LittleEndian.Uint32(s.recs[h.recI:]))
	if superJ == super {
		h.recJ, h.sumJ = h.recI, h.sumI
		return
	}
	h.recJ = s.dir[superJ]
	h.sumJ = int(binary.LittleEndian.Uint32(s.recs[h.recJ:]))
}

// DecodePair returns Rank1Pair(i, j) for the head LoadPair read, decoding
// the records' bodies.
func (s *Sequence) DecodePair(h *PairHead) (int, int) {
	bi, super := s.locate(h.i)
	bj, superJ := s.locate(h.j)
	if superJ == super {
		return s.pair(h.i, h.j, bi, bj, super, h.sumI, s.recs[h.recI+4:], 8*s.classBytes(super))
	}
	return s.rankIn(h.i, bi, super, h.sumI, s.recs[h.recI+4:], 8*s.classBytes(super)),
		s.rankIn(h.j, bj, superJ, h.sumJ, s.recs[h.recJ+4:], 8*s.classBytes(superJ))
}

// rankIn finishes Rank1(i), i in block blk of superblock super, from that
// superblock's record: the partial sum, the body and the bit position of
// the first offset field in it.
func (s *Sequence) rankIn(i, blk, super, sum int, body []byte, pos int) int {
	k := blk - super*s.sf
	ones, width := s.scan(body, 0, k)
	return sum + ones + s.prefix(body, k, pos+width, i-blk*s.b)
}

// SizeBytes returns the actual memory footprint of this sequence — the
// records, padding included, the directory and three header words —
// excluding the shared global rank table (use SharedSizeBytes for that),
// matching how the paper accounts space when many wavelet nodes share one
// table.
func (s *Sequence) SizeBytes() int {
	return len(s.recs) + len(s.dir)*4 + 3*4
}

// PackedSizeBytes returns the footprint of the same sequence as the paper
// lays it out and WriteTo serializes it — the class, partial-sum, offset-sum
// and offset arrays, with no per-superblock padding. It is what a device
// holding the structure in that layout is charged.
func (s *Sequence) PackedSizeBytes() int {
	return (s.nBlk+1)/2 + (2*s.nSuper+1)*4 + (s.offBits+7)/8 + 3*4
}

// SharedSizeBytes returns the size of the shared global rank table.
func (s *Sequence) SharedSizeBytes() int { return s.table.SizeBytes() }
