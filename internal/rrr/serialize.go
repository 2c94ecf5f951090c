package rrr

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Serialization format (little endian):
//
//	magic   uint32  'RRR1'
//	n, b, sf, nBlk, nSuper, offBits  uint32 each
//	classes     [ceil(nBlk/2)]uint8
//	partialSum  [nSuper+1]uint32
//	offsetSum   [nSuper]uint32
//	offsets     [ceil(offBits/64)]uint64
//
// These are the paper's four arrays, not the in-memory superblock records:
// WriteTo splits the records' fields back into the arrays (offsetSum[s] is
// the bit position of superblock s's first field in the unpadded offsets
// vector) and ReadSequence interleaves them again, so files written before
// the records existed load unchanged.
//
// The shared global rank table is not serialized; it is rebuilt from b on
// load, exactly as the FPGA host code regenerates it rather than shipping
// 64 KiB per node.
const sequenceMagic = 0x52525231 // "RRR1"

// wireOffsetBytes is the length of the serialized offsets vector; its uint64
// words, little endian, are one LSB-first byte stream.
func wireOffsetBytes(offBits int) int { return (offBits + 63) / 64 * 8 }

// wireSlack pads a buffer holding that vector: getBits and putBits touch 4
// bytes from any bit position up to offBits.
const wireSlack = 4

// WriteTo serializes the sequence. It implements io.WriterTo.
func (s *Sequence) WriteTo(w io.Writer) (int64, error) {
	classes := make([]uint8, (s.nBlk+1)/2)
	sums := make([]uint32, 2*s.nSuper+1) // partialSum, then offsetSum
	offsets := make([]byte, wireOffsetBytes(s.offBits)+wireSlack)
	sums[s.nSuper] = uint32(s.Ones())
	pos := 0
	for super := 0; super < s.nSuper; super++ {
		sum, body, at := s.record(super)
		sums[super], sums[s.nSuper+1+super] = uint32(sum), uint32(pos)
		for k, blk := 0, super*s.sf; k < s.sf && blk < s.nBlk; k, blk = k+1, blk+1 {
			c := nibble(body, k)
			setNibble(classes, blk, c)
			if w := s.table.width[c]; w > 0 {
				putBits(offsets, pos, getBits(body, at, w))
				at += int(w)
				pos += int(w)
			}
		}
	}
	cw := &countingWriter{w: w}
	head := []uint32{sequenceMagic, uint32(s.n), uint32(s.b), uint32(s.sf),
		uint32(s.nBlk), uint32(s.nSuper), uint32(s.offBits)}
	for _, part := range []any{head, classes, sums, offsets[:len(offsets)-wireSlack]} {
		if err := binary.Write(cw, binary.LittleEndian, part); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

// ReadSequence deserializes a sequence written by WriteTo, validating the
// header against the supported parameter ranges before allocating.
func ReadSequence(r io.Reader) (*Sequence, error) {
	var head [7]uint32
	if err := binary.Read(r, binary.LittleEndian, &head); err != nil {
		return nil, fmt.Errorf("rrr: reading header: %w", err)
	}
	if head[0] != sequenceMagic {
		return nil, fmt.Errorf("rrr: bad magic %#x", head[0])
	}
	n, b, sf := int(head[1]), int(head[2]), int(head[3])
	nBlk, nSuper, offBits := int(head[4]), int(head[5]), int(head[6])
	p := Params{BlockSize: b, SuperblockFactor: sf}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if nBlk != (n+b-1)/b || nSuper != (nBlk+sf-1)/sf {
		return nil, fmt.Errorf("rrr: inconsistent header: n=%d b=%d sf=%d nBlk=%d nSuper=%d", n, b, sf, nBlk, nSuper)
	}
	table, err := TableFor(b)
	if err != nil {
		return nil, err
	}
	// Every block, the zero-padded last one too, carries at most the widest
	// class's field: binomial(b, c) peaks at c = b/2.
	if offBits < 0 || offBits > nBlk*table.Width(b/2) {
		return nil, fmt.Errorf("rrr: implausible offset length %d bits for %d-bit sequence", offBits, n)
	}
	classes := make([]uint8, (nBlk+1)/2)
	partialSum := make([]uint32, nSuper+1)
	offsetSum := make([]uint32, nSuper)
	offsets := make([]byte, wireOffsetBytes(offBits)+wireSlack)
	if _, err := io.ReadFull(r, classes); err != nil {
		return nil, fmt.Errorf("rrr: reading classes: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, partialSum); err != nil {
		return nil, fmt.Errorf("rrr: reading partial sums: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, offsetSum); err != nil {
		return nil, fmt.Errorf("rrr: reading offset sums: %w", err)
	}
	if _, err := io.ReadFull(r, offsets[:len(offsets)-wireSlack]); err != nil {
		return nil, fmt.Errorf("rrr: reading offsets: %w", err)
	}
	// Integrity: every stored class must be <= b; the per-superblock
	// partial sums and offset-sum entries must agree with the class array;
	// and the offset widths of all blocks must sum to offBits. This makes
	// corrupted inputs fail loudly instead of answering wrong ranks.
	ones, width := 0, 0
	for blk := 0; blk < nBlk; blk++ {
		if blk%sf == 0 {
			super := blk / sf
			if int(partialSum[super]) != ones {
				return nil, fmt.Errorf("rrr: partial sum of superblock %d is %d, classes say %d",
					super, partialSum[super], ones)
			}
			if int(offsetSum[super]) != width {
				return nil, fmt.Errorf("rrr: offset sum of superblock %d is %d, classes say %d",
					super, offsetSum[super], width)
			}
		}
		c := nibble(classes, blk)
		if c > b {
			return nil, fmt.Errorf("rrr: block %d has class %d > b=%d", blk, c, b)
		}
		if w := table.Width(c); w > 0 {
			if width+w > offBits {
				return nil, fmt.Errorf("rrr: offset fields overrun the offset bit-vector at block %d", blk)
			}
			run := int(table.ClassOffset[c+1] - table.ClassOffset[c])
			if off := getBits(offsets, width, table.width[c]); off >= run {
				return nil, fmt.Errorf("rrr: block %d stores offset %d for class %d (only %d permutations)",
					blk, off, c, run)
			}
		}
		ones += c
		width += table.Width(c)
	}
	if int(partialSum[nSuper]) != ones {
		return nil, fmt.Errorf("rrr: total partial sum %d, classes say %d", partialSum[nSuper], ones)
	}
	if width != offBits {
		return nil, fmt.Errorf("rrr: offset bits %d do not match classes (want %d)", offBits, width)
	}
	// The last block's class cannot exceed the bits actually present.
	if nBlk > 0 {
		if rem, c := n-(nBlk-1)*b, nibble(classes, nBlk-1); c > rem {
			return nil, fmt.Errorf("rrr: final block class %d exceeds its %d bits", c, rem)
		}
	}
	// The arrays are sound: interleave them into the superblock records.
	s := newSequence(n, p, table)
	pos := 0
	err = s.encode(func(blk int) (int, int) {
		if blk == 0 {
			pos = 0 // encode's second pass starts over
		}
		c := nibble(classes, blk)
		off := getBits(offsets, pos, table.width[c])
		pos += table.Width(c)
		return c, off
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
