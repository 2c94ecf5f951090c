package wavelet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"bwaver/internal/rrr"
)

// Serialization format (little endian):
//
//	magic  uint32 'WVT1'
//	n, sigma  uint32
//	kind   uint8 (0 = rrr; 1 was plain bit-vectors, no longer read)
//	nodes, pre-order; per node:
//	    present uint8 (0 = leaf/nil)
//	    lo, hi uint32
//	    payload (rrr.Sequence)
const treeMagic = 0x57565431 // "WVT1"

// ErrTreeKind is ReadTree's error for a tree whose nodes are not RRR
// sequences: plain-bit-vector trees are no longer supported, and an index
// holding one must be rebuilt.
var ErrTreeKind = errors.New("wavelet: unsupported tree kind: plain-bit-vector indexes are no longer supported and must be rebuilt")

// WriteTo serializes the tree. It implements io.WriterTo.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	head := []any{uint32(treeMagic), uint32(t.n), uint32(t.sigma), uint8(0)}
	for _, v := range head {
		if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
			return cw.n, err
		}
	}
	var writeNode func(nd *node) error
	writeNode = func(nd *node) error {
		if nd == nil {
			return binary.Write(cw, binary.LittleEndian, uint8(0))
		}
		if err := binary.Write(cw, binary.LittleEndian, uint8(1)); err != nil {
			return err
		}
		if err := binary.Write(cw, binary.LittleEndian, [2]uint32{uint32(nd.lo), uint32(nd.hi)}); err != nil {
			return err
		}
		if _, err := nd.seq.WriteTo(cw); err != nil {
			return err
		}
		if err := writeNode(nd.zero); err != nil {
			return err
		}
		return writeNode(nd.on)
	}
	if err := writeNode(t.root); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadTree deserializes a tree written by WriteTo.
func ReadTree(r io.Reader) (*Tree, error) {
	var magic, n, sigma uint32
	var kind uint8
	for _, v := range []any{&magic, &n, &sigma, &kind} {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("wavelet: reading header: %w", err)
		}
	}
	if magic != treeMagic {
		return nil, fmt.Errorf("wavelet: bad magic %#x", magic)
	}
	if sigma < 2 || sigma > 256 {
		return nil, fmt.Errorf("wavelet: implausible alphabet size %d", sigma)
	}
	if kind != 0 {
		return nil, fmt.Errorf("%w (kind %d)", ErrTreeKind, kind)
	}
	var readNode func() (*node, error)
	readNode = func() (*node, error) {
		var present uint8
		if err := binary.Read(r, binary.LittleEndian, &present); err != nil {
			return nil, fmt.Errorf("wavelet: reading node flag: %w", err)
		}
		if present == 0 {
			return nil, nil
		}
		var bounds [2]uint32
		if err := binary.Read(r, binary.LittleEndian, &bounds); err != nil {
			return nil, fmt.Errorf("wavelet: reading node bounds: %w", err)
		}
		if bounds[0] >= bounds[1] || bounds[1] > sigma {
			return nil, fmt.Errorf("wavelet: node range [%d,%d) invalid for sigma %d", bounds[0], bounds[1], sigma)
		}
		seq, err := rrr.ReadSequence(r)
		if err != nil {
			return nil, err
		}
		nd := &node{seq: seq, lo: int(bounds[0]), hi: int(bounds[1])}
		if nd.zero, err = readNode(); err != nil {
			return nil, err
		}
		if nd.on, err = readNode(); err != nil {
			return nil, err
		}
		return nd, nil
	}
	root, err := readNode()
	if err != nil {
		return nil, err
	}
	if root != nil && root.seq.Len() != int(n) {
		return nil, fmt.Errorf("wavelet: root vector covers %d symbols, header says %d", root.seq.Len(), n)
	}
	if root != nil {
		if root.lo != 0 || root.hi != int(sigma) {
			return nil, fmt.Errorf("wavelet: root covers [%d,%d), want [0,%d)", root.lo, root.hi, sigma)
		}
		if err := validateNode(root); err != nil {
			return nil, err
		}
	} else if n > 0 && sigma > 1 {
		return nil, fmt.Errorf("wavelet: non-empty tree lacks a root node")
	}
	levels := 0
	for 1<<uint(levels) < int(sigma) {
		levels++
	}
	return &Tree{root: root, n: int(n), sigma: int(sigma), levels: levels}, nil
}

// validateNode checks the structural invariants a deserialized subtree must
// satisfy before queries are safe: each child partitions its parent's
// alphabet range at the midpoint and covers exactly the parent's zero/one
// count. Corrupted payloads that pass the per-vector checks but break the
// tree shape would otherwise return garbage ranks that overflow callers.
func validateNode(nd *node) error {
	if nd.hi-nd.lo < 2 {
		return fmt.Errorf("wavelet: internal node covers degenerate range [%d,%d)", nd.lo, nd.hi)
	}
	mid := (nd.lo + nd.hi + 1) / 2
	ones := nd.seq.Rank1(nd.seq.Len())
	zeros := nd.seq.Len() - ones
	if nd.zero != nil {
		if nd.zero.lo != nd.lo || nd.zero.hi != mid {
			return fmt.Errorf("wavelet: zero child covers [%d,%d), want [%d,%d)", nd.zero.lo, nd.zero.hi, nd.lo, mid)
		}
		if nd.zero.seq.Len() != zeros {
			return fmt.Errorf("wavelet: zero child covers %d symbols, parent has %d zeros", nd.zero.seq.Len(), zeros)
		}
		if err := validateNode(nd.zero); err != nil {
			return err
		}
	} else if mid-nd.lo > 1 {
		return fmt.Errorf("wavelet: missing zero child for range [%d,%d)", nd.lo, mid)
	}
	if nd.on != nil {
		if nd.on.lo != mid || nd.on.hi != nd.hi {
			return fmt.Errorf("wavelet: one child covers [%d,%d), want [%d,%d)", nd.on.lo, nd.on.hi, mid, nd.hi)
		}
		if nd.on.seq.Len() != ones {
			return fmt.Errorf("wavelet: one child covers %d symbols, parent has %d ones", nd.on.seq.Len(), ones)
		}
		if err := validateNode(nd.on); err != nil {
			return err
		}
	} else if nd.hi-mid > 1 {
		return fmt.Errorf("wavelet: missing one child for range [%d,%d)", mid, nd.hi)
	}
	return nil
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
