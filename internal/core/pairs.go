package core

import (
	"cmp"
	"fmt"
	"slices"
)

// Paired-end mapping. A read pair in FR orientation is concordant when R1
// maps on the forward strand at p1, R2 on the reverse strand ending at
// p2+len, with the implied fragment length p2+len-p1 inside the expected
// insert window (or the strand-mirrored arrangement). This is the
// pipeline-integration feature the paper's future work points at
// ("integrate BWaveR in real sequence analysis pipelines").

// pairMaxHits is the ambiguity guard of exact pairing: a mate with more
// occurrences than this is not paired, and its pair is reported ambiguous
// rather than exploding combinatorially.
const pairMaxHits = 256

// PairOptions bound the accepted fragment length (outer distance) of a
// concordant pair.
type PairOptions struct {
	MinInsert, MaxInsert int
}

// Validate rejects an inverted or negative insert window.
func (o PairOptions) Validate() error {
	if o.MinInsert < 0 || o.MaxInsert < o.MinInsert {
		return fmt.Errorf("core: insert window [%d,%d] invalid", o.MinInsert, o.MaxInsert)
	}
	return nil
}

// PairPlacement is one concordant placement of a pair.
type PairPlacement struct {
	// Pos is the fragment's leftmost reference position.
	Pos int32
	// Insert is the implied fragment length.
	Insert int
	// R1Forward reports the orientation: true when R1 is the forward
	// (left) mate, false for the mirrored arrangement.
	R1Forward bool
}

// PairMates searches the insert window for the concordant placements of a
// pair whose mates, len1 and len2 bases long, mapped with located positions
// to r1 and r2. The placements come sorted by position, then insert; ties
// keep the arrangement order (R1 forward first).
// ambiguous is set, and nothing placed, when a mate occurs more than
// pairMaxHits times.
func PairMates(r1, r2 MapResult, len1, len2 int, opts PairOptions) (placements []PairPlacement, ambiguous bool) {
	if !r1.Mapped() || !r2.Mapped() {
		return nil, false
	}
	if r1.Occurrences() > pairMaxHits || r2.Occurrences() > pairMaxHits {
		return nil, true
	}
	// FR arrangement 1: R1 forward at p1, R2 reverse-strand at p2
	// (RC(R2) matches the genome at p2); fragment = [p1, p2+len2).
	placements = pairUp(placements, r1.ForwardPositions, r2.ReversePositions, len2, opts, true)
	// Mirror: R2 forward at p2, R1 reverse-strand at p1.
	placements = pairUp(placements, r2.ForwardPositions, r1.ReversePositions, len1, opts, false)
	slices.SortStableFunc(placements, func(a, b PairPlacement) int {
		return cmp.Or(cmp.Compare(a.Pos, b.Pos), cmp.Compare(a.Insert, b.Insert))
	})
	return placements, false
}

// pairUp appends to out the pairings of left-mate forward positions with
// right-mate reverse positions whose implied insert falls inside the window.
func pairUp(out []PairPlacement, lefts, rights []int32, rightLen int, opts PairOptions, r1Forward bool) []PairPlacement {
	if len(lefts) == 0 || len(rights) == 0 {
		return out
	}
	ls, rs := slices.Clone(lefts), slices.Clone(rights)
	slices.Sort(ls)
	slices.Sort(rs)
	lo := 0
	for _, p1 := range ls {
		// Fragment end = p2 + rightLen; accept p2 with
		// MinInsert <= p2+rightLen-p1 <= MaxInsert.
		for lo < len(rs) && int(rs[lo])+rightLen-int(p1) < opts.MinInsert {
			lo++
		}
		for i := lo; i < len(rs); i++ {
			insert := int(rs[i]) + rightLen - int(p1)
			if insert > opts.MaxInsert {
				break
			}
			if insert >= opts.MinInsert {
				out = append(out, PairPlacement{Pos: p1, Insert: insert, R1Forward: r1Forward})
			}
		}
	}
	return out
}
