package core

import (
	"fmt"
	"sort"
)

// Multi-record references. Mapping tools index a multi-chromosome FASTA by
// concatenating its records; occurrence positions then live in concatenated
// coordinates and must be translated back to (contig, offset) pairs — and
// hits that straddle a record boundary are artifacts of the concatenation
// and must be rejected, since no contiguous genomic locus corresponds to
// them. ContigSet provides both operations.

// Contig is one reference record in concatenation order.
type Contig struct {
	Name   string
	Offset int // start position in the concatenated sequence
	Length int
}

// End returns the exclusive end of the contig in concatenated coordinates.
func (c Contig) End() int { return c.Offset + c.Length }

// ContigSet translates concatenated positions to per-contig coordinates.
type ContigSet struct {
	contigs []Contig
	total   int
}

// NewContigSet builds a set from record names and lengths in file order.
func NewContigSet(names []string, lengths []int) (*ContigSet, error) {
	if len(names) != len(lengths) {
		return nil, fmt.Errorf("core: %d contig names for %d lengths", len(names), len(lengths))
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("core: empty contig set")
	}
	seen := make(map[string]bool, len(names))
	cs := &ContigSet{contigs: make([]Contig, len(names))}
	for i, name := range names {
		if name == "" {
			return nil, fmt.Errorf("core: contig %d has an empty name", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("core: duplicate contig name %q", name)
		}
		seen[name] = true
		if lengths[i] <= 0 {
			return nil, fmt.Errorf("core: contig %q has non-positive length %d", name, lengths[i])
		}
		cs.contigs[i] = Contig{Name: name, Offset: cs.total, Length: lengths[i]}
		cs.total += lengths[i]
	}
	return cs, nil
}

// Count returns the number of contigs.
func (cs *ContigSet) Count() int { return len(cs.contigs) }

// Contig returns the i-th contig.
func (cs *ContigSet) Contig(i int) Contig { return cs.contigs[i] }

// Contigs returns all contigs in order.
func (cs *ContigSet) Contigs() []Contig { return cs.contigs }

// Resolve translates a concatenated hit covering [pos, pos+span) into a
// contig-relative position. ok is false when the hit starts outside the
// concatenation or straddles a contig boundary — the false-positive class
// concatenated indexing introduces.
func (cs *ContigSet) Resolve(pos, span int) (contig Contig, offset int, ok bool) {
	if pos < 0 || pos >= cs.total || span < 0 || pos+span > cs.total {
		return Contig{}, 0, false
	}
	// Greatest contig with Offset <= pos.
	i := sort.Search(len(cs.contigs), func(j int) bool { return cs.contigs[j].Offset > pos }) - 1
	c := cs.contigs[i]
	if pos+span > c.End() {
		return Contig{}, 0, false
	}
	return c, pos - c.Offset, true
}

// SetContigs attaches contig metadata to the index. The summed contig
// lengths must equal the indexed reference length.
func (ix *Index) SetContigs(cs *ContigSet) error {
	if cs != nil && cs.total != ix.RefLength() {
		return fmt.Errorf("core: contigs cover %d bases, index holds %d", cs.total, ix.RefLength())
	}
	ix.contigs = cs
	return nil
}

// Contigs returns the attached contig metadata, or nil for a single
// anonymous reference.
func (ix *Index) Contigs() *ContigSet { return ix.contigs }
