package rrr

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
)

// globalRankTable is the shared permutation table of the paper (§III-B,
// Fig. 3): all 2^b possible blocks of b bits, sorted by class (popcount) and
// then in ascending value order, together with the class-offset array that
// points at the first permutation of each class.
//
// The paper stores this table once and shares it among the RRR sequences of
// all wavelet-tree nodes; here the table is interned per block size in a
// package-level cache so every Sequence with the same b shares one instance.
type globalRankTable struct {
	B int // block size in bits

	// Permutations holds the 2^b block values sorted by (class, value).
	Permutations []uint16
	// ClassOffset[c] is the index in Permutations of the first block with
	// class c; ClassOffset[b+1] == len(Permutations).
	ClassOffset []uint32
	// offsetOf[v] is the position of block value v within its class run,
	// the inverse mapping used during encoding.
	offsetOf []uint16
	// width[c] is ceil(log2(binomial(b, c))), the number of offset bits a
	// block of class c occupies.
	width []uint8

	// classSum and widthSum are derived lookup tables over one packed
	// classes byte (two 4-bit classes, low nibble first): the popcount sum
	// and offset-width sum of both blocks. They let Rank1's superblock scan
	// consume two blocks per iteration instead of one. Derived at build
	// time, they are not part of the structure's accounted size.
	classSum [256]uint8
	widthSum [256]uint16
}

// minBlockSize and maxBlockSize bound the supported block sizes. The upper
// bound of 15 comes from the paper's layout: classes are stored in 4-bit
// fields (values 0..15) and permutations in 16-bit fields.
const (
	minBlockSize = 2
	maxBlockSize = 15
)

var (
	tableMu    sync.Mutex
	tableCache = map[int]*globalRankTable{}
)

// tableFor returns the shared global rank table for block size b, building
// it on first use.
func tableFor(b int) (*globalRankTable, error) {
	if b < minBlockSize || b > maxBlockSize {
		return nil, fmt.Errorf("rrr: block size %d out of range [%d,%d]", b, minBlockSize, maxBlockSize)
	}
	tableMu.Lock()
	defer tableMu.Unlock()
	if t, ok := tableCache[b]; ok {
		return t, nil
	}
	t := buildTable(b)
	tableCache[b] = t
	return t, nil
}

func buildTable(b int) *globalRankTable {
	n := 1 << uint(b)
	perms := make([]uint16, n)
	for i := range perms {
		perms[i] = uint16(i)
	}
	sort.Slice(perms, func(i, j int) bool {
		ci, cj := bits.OnesCount16(perms[i]), bits.OnesCount16(perms[j])
		if ci != cj {
			return ci < cj
		}
		return perms[i] < perms[j]
	})

	classOffset := make([]uint32, b+2)
	offsetOf := make([]uint16, n)
	prevClass := -1
	for i, v := range perms {
		c := bits.OnesCount16(v)
		for prevClass < c {
			prevClass++
			classOffset[prevClass] = uint32(i)
		}
		offsetOf[v] = uint16(uint32(i) - classOffset[c])
	}
	for prevClass < b+1 {
		prevClass++
		classOffset[prevClass] = uint32(n)
	}

	width := make([]uint8, b+1)
	for c := 0; c <= b; c++ {
		count := classOffset[c+1] - classOffset[c] // == binomial(b, c)
		width[c] = uint8(bits.Len32(count - 1))    // ceil(log2(count)); 0 when count==1
	}
	t := &globalRankTable{
		B:            b,
		Permutations: perms,
		ClassOffset:  classOffset,
		offsetOf:     offsetOf,
		width:        width,
	}
	for v := 0; v < 256; v++ {
		lo, hi := v&0xF, v>>4
		t.classSum[v] = uint8(lo + hi)
		// Nibbles above b never occur for this block size; leave their
		// width sums zero rather than index past width.
		if lo <= b && hi <= b {
			t.widthSum[v] = uint16(width[lo]) + uint16(width[hi])
		}
	}
	return t
}

// Width returns the offset-field width in bits for a block of class c.
func (t *globalRankTable) Width(c int) int { return int(t.width[c]) }

// OffsetOf returns the position of block value v within its class run.
func (t *globalRankTable) OffsetOf(v uint16) int { return int(t.offsetOf[v]) }

// Block reconstructs the block value for (class, offset).
func (t *globalRankTable) Block(class, offset int) uint16 {
	return t.Permutations[int(t.ClassOffset[class])+offset]
}

// SizeBytes is the memory the shared table contributes: the paper counts
// 2^(b+1) bytes for the permutations plus the class-offset array.
func (t *globalRankTable) SizeBytes() int {
	return len(t.Permutations)*2 + len(t.ClassOffset)*4
}
