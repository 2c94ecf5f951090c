package fmindex

import (
	"encoding/binary"
	"fmt"
	"io"

	"bwaver/internal/bitvec"
)

const (
	sampledMagic = 0x53534131 // "SSA1"
	ftabMagic    = 0x46544231 // "FTB1"
)

// WriteTo serializes the sampled suffix array. It implements io.WriterTo.
func (s *SampledSA) WriteTo(w io.Writer) (int64, error) {
	var written int64
	head := [3]uint32{sampledMagic, uint32(s.rate), uint32(len(s.values))}
	if err := binary.Write(w, binary.LittleEndian, head); err != nil {
		return written, err
	}
	written += 12
	n, err := s.marks.WriteTo(w)
	written += n
	if err != nil {
		return written, err
	}
	if err := binary.Write(w, binary.LittleEndian, s.values); err != nil {
		return written, err
	}
	written += int64(len(s.values)) * 4
	return written, nil
}

// ReadSampledSA deserializes a sampled suffix array written by WriteTo.
func ReadSampledSA(r io.Reader) (*SampledSA, error) {
	var head [3]uint32
	if err := binary.Read(r, binary.LittleEndian, &head); err != nil {
		return nil, fmt.Errorf("fmindex: reading sampled SA header: %w", err)
	}
	if head[0] != sampledMagic {
		return nil, fmt.Errorf("fmindex: bad sampled SA magic %#x", head[0])
	}
	if head[1] < 1 {
		return nil, fmt.Errorf("fmindex: sampled SA rate %d invalid", head[1])
	}
	marks, err := bitvec.ReadVector(r)
	if err != nil {
		return nil, err
	}
	if int(head[2]) != marks.Ones() {
		return nil, fmt.Errorf("fmindex: sampled SA has %d values but %d marks", head[2], marks.Ones())
	}
	values := make([]int32, head[2])
	if err := binary.Read(r, binary.LittleEndian, values); err != nil {
		return nil, fmt.Errorf("fmindex: reading sampled SA values: %w", err)
	}
	return &SampledSA{rate: int(head[1]), marks: marks, values: values}, nil
}

// WriteTo serializes the prefix table: magic, order, then every range's
// start followed by every range's end, as two int32 arrays. It implements
// io.WriterTo. Lookup counters are runtime state and are not persisted.
func (f *Ftab) WriteTo(w io.Writer) (int64, error) {
	var written int64
	head := [2]uint32{ftabMagic, uint32(f.k)}
	if err := binary.Write(w, binary.LittleEndian, head); err != nil {
		return written, err
	}
	written += 8
	column := make([]int32, len(f.entries))
	for _, ends := range []bool{false, true} {
		for i, e := range f.entries {
			column[i] = e.lo
			if ends {
				column[i] = e.hi
			}
		}
		if err := binary.Write(w, binary.LittleEndian, column); err != nil {
			return written, err
		}
		written += int64(len(column)) * 4
	}
	return written, nil
}

// ReadFtab deserializes a prefix table written by WriteTo. Callers must
// Validate the result against their index length before attaching it.
func ReadFtab(r io.Reader) (*Ftab, error) {
	var head [2]uint32
	if err := binary.Read(r, binary.LittleEndian, &head); err != nil {
		return nil, fmt.Errorf("fmindex: reading ftab header: %w", err)
	}
	if head[0] != ftabMagic {
		return nil, fmt.Errorf("fmindex: bad ftab magic %#x", head[0])
	}
	k := int(head[1])
	if k < 1 || k > MaxFtabK {
		return nil, fmt.Errorf("fmindex: ftab order %d outside [1,%d]", k, MaxFtabK)
	}
	f := &Ftab{k: k, entries: make([]ftabEntry, 1<<(2*k))}
	column := make([]int32, len(f.entries))
	for _, ends := range []bool{false, true} {
		if err := binary.Read(r, binary.LittleEndian, column); err != nil {
			return nil, fmt.Errorf("fmindex: reading ftab intervals: %w", err)
		}
		for i, v := range column {
			if ends {
				f.entries[i].hi = v
			} else {
				f.entries[i].lo = v
			}
		}
	}
	return f, nil
}
