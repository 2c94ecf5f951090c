// Package align implements Smith-Waterman local alignment and banded seed
// extension.
//
// The paper motivates short-fragment mapping as the seeding stage of
// seed-and-extend aligners (§I: "the mapping of short DNA fragments is used
// to determine candidate loci in the genome (seeds) to be extended by the
// actual alignment algorithm"); its related work (Arram et al.) pairs an
// FM-index seeder with Smith-Waterman. This package supplies that extension
// stage: core's seed-and-extend pipeline extends its chained SMEM seeds
// with it.
package align

import (
	"fmt"
	"strconv"
)

// Scoring holds the affine-free (linear-gap) alignment parameters.
type Scoring struct {
	Match    int // score for a base match (> 0)
	Mismatch int // penalty for a mismatch (< 0)
	Gap      int // penalty per gap base (< 0)
}

// DefaultScoring matches common short-read settings (+2/-3/-5).
var DefaultScoring = Scoring{Match: 2, Mismatch: -3, Gap: -5}

// validate checks the scoring scheme's sign conventions.
func (s Scoring) validate() error {
	if s.Match <= 0 {
		return fmt.Errorf("align: match score %d must be positive", s.Match)
	}
	if s.Mismatch >= 0 || s.Gap >= 0 {
		return fmt.Errorf("align: mismatch (%d) and gap (%d) penalties must be negative", s.Mismatch, s.Gap)
	}
	return nil
}

// Op is an alignment operation in a traceback.
type Op byte

// Alignment operations, CIGAR-style.
const (
	OpMatch  Op = 'M' // match or mismatch (consumes both)
	OpInsert Op = 'I' // insertion to the query (consumes query)
	OpDelete Op = 'D' // deletion from the query (consumes reference)
)

// Result is a local alignment.
type Result struct {
	Score int
	// QueryStart/QueryEnd and RefStart/RefEnd delimit the aligned regions,
	// half-open.
	QueryStart, QueryEnd int
	RefStart, RefEnd     int
	// Ops is the traceback, query/reference left to right.
	Ops []Op
	// Cells is the number of dynamic-programming cells the alignment
	// evaluated — the work measure a systolic-array implementation of the
	// extension kernel would charge (one cell per PE per cycle).
	Cells int
}

// AppendCIGAR appends the run-length encoded traceback to dst, "*" for an
// empty one.
func (r Result) AppendCIGAR(dst []byte) []byte {
	if len(r.Ops) == 0 {
		return append(dst, '*')
	}
	count := 1
	for i := 1; i <= len(r.Ops); i++ {
		if i < len(r.Ops) && r.Ops[i] == r.Ops[i-1] {
			count++
			continue
		}
		dst = strconv.AppendInt(dst, int64(count), 10)
		dst = append(dst, byte(r.Ops[i-1]))
		count = 1
	}
	return dst
}

func reverseOps(ops []Op) {
	for i, j := 0, len(ops)-1; i < j; i, j = i+1, j-1 {
		ops[i], ops[j] = ops[j], ops[i]
	}
}
