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

// ftabChunk is how many int32s of a prefix table's columns are written or
// read at a time.
const ftabChunk = 1 << 14

// WriteTo serializes the prefix table: magic, order, then every k-mer's range
// start followed by every range's end, as two int32 arrays — the ranges
// lookup returns, dead k-mers' death ranges included. It implements
// io.WriterTo. Lookup counters are runtime state and are not persisted.
func (f *Ftab) WriteTo(w io.Writer) (int64, error) {
	buf := make([]byte, 8, 4*ftabChunk)
	binary.LittleEndian.PutUint32(buf, ftabMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(f.k))
	var written int64
	flush := func() error {
		n, err := w.Write(buf)
		written += int64(n)
		buf = buf[:0]
		return err
	}
	// One walk gives both columns: the starts go out as they come, the ends
	// wait in a column of their own.
	ends := make([]int32, 0, f.entries())
	err := f.forEach(func(_ int, r Range) error {
		ends = append(ends, int32(r.End))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(r.Start)))
		if len(buf) < cap(buf) {
			return nil
		}
		return flush()
	})
	if err != nil {
		return written, err
	}
	for _, v := range ends {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		if len(buf) == cap(buf) {
			if err := flush(); err != nil {
				return written, err
			}
		}
	}
	return written, flush()
}

// ReadFtab deserializes a prefix table written by WriteTo for the index ix.
// It derives the lower bounds from the stored ranges — a living k-mer's is
// its start, a dead one's the next bound less the short suffixes sorting in
// between — and accepts the payload only if it is the table those bounds
// describe over ix's rows: the first bound counts the rows below every k-mer,
// each living k-mer ends one below the next bound less the short suffixes
// there (so living starts never decrease), and each dead one holds the death
// range the bounds and ix's text tail derive. The columns are read a chunk at
// a time, so a payload cut short fails having allocated about what it read,
// whatever order its header claims.
func ReadFtab(r io.Reader, ix *Index) (*Ftab, error) {
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
	if ix.sigma > ftabSigma {
		return nil, fmt.Errorf("fmindex: ftab keys cover %d symbols, index has %d", ftabSigma, ix.sigma)
	}
	tail, err := ix.shortTail(k - 1)
	if err != nil {
		return nil, err
	}
	keys := 1 << (2 * k)
	buf := make([]byte, 4*min(keys, ftabChunk))
	var starts, ends [][]int32
	for _, column := range []*[][]int32{&starts, &ends} {
		for at := 0; at < keys; at += ftabChunk {
			b := buf[:4*min(keys-at, ftabChunk)]
			if _, err := io.ReadFull(r, b); err != nil {
				return nil, fmt.Errorf("fmindex: reading ftab intervals: %w", err)
			}
			chunk := make([]int32, len(b)/4)
			for i := range chunk {
				chunk[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
			}
			*column = append(*column, chunk)
		}
	}
	stored := func(key int) Range {
		return Range{Start: int(starts[key/ftabChunk][key%ftabChunk]), End: int(ends[key/ftabChunk][key%ftabChunk])}
	}
	f := &Ftab{k: k, sigma: ix.sigma, bounds: make([]int32, keys+1), tail: tail}
	f.bounds[keys] = int32(ix.n + 1)
	for key := keys - 1; key >= 0; key-- {
		switch r := stored(key); {
		case r.Empty():
			f.bounds[key] = f.bounds[key+1] - int32(tail.below(k, uint32(key+1), 1))
		case r.Start < 1 || r.End > ix.n:
			return nil, fmt.Errorf("fmindex: ftab k-mer %d holds rows [%d,%d] outside [1,%d]", key, r.Start, r.End, ix.n)
		default:
			f.bounds[key] = int32(r.Start)
		}
	}
	// Below the first k-mer sort the sentinel and the short suffixes of As.
	if below := 1 + tail.below(k, 0, 1); int(f.bounds[0]) != below {
		return nil, fmt.Errorf("fmindex: ftab puts %d rows below the first k-mer, index has %d", f.bounds[0], below)
	}
	err = f.forEach(func(key int, r Range) error {
		if s := stored(key); r != s {
			return fmt.Errorf("fmindex: ftab k-mer %d holds rows [%d,%d], the bounds derive [%d,%d]", key, s.Start, s.End, r.Start, r.End)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}
