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
	"strings"

	"bwaver/internal/dna"
)

// Scoring holds the affine-free (linear-gap) alignment parameters.
type Scoring struct {
	Match    int // score for a base match (> 0)
	Mismatch int // penalty for a mismatch (< 0)
	Gap      int // penalty per gap base (< 0)
}

// DefaultScoring matches common short-read settings (+2/-3/-5).
var DefaultScoring = Scoring{Match: 2, Mismatch: -3, Gap: -5}

// Validate checks the scoring scheme's sign conventions.
func (s Scoring) Validate() error {
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

// CIGAR renders the traceback run-length encoded.
func (r Result) CIGAR() string {
	if len(r.Ops) == 0 {
		return "*"
	}
	var out strings.Builder
	out.Grow(len(r.Ops))
	count := 1
	for i := 1; i <= len(r.Ops); i++ {
		if i < len(r.Ops) && r.Ops[i] == r.Ops[i-1] {
			count++
			continue
		}
		out.WriteString(strconv.Itoa(count))
		out.WriteByte(byte(r.Ops[i-1]))
		count = 1
	}
	return out.String()
}

// SmithWaterman computes the best local alignment of query against ref with
// full O(|query|·|ref|) dynamic programming.
func SmithWaterman(query, ref dna.Seq, sc Scoring) (Result, error) {
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	m, n := len(query), len(ref)
	if m == 0 || n == 0 {
		return Result{}, nil
	}
	// H[i][j]: best local score ending at query[i-1], ref[j-1].
	H := make([][]int32, m+1)
	for i := range H {
		H[i] = make([]int32, n+1)
	}
	best := int32(0)
	bi, bj := 0, 0
	for i := 1; i <= m; i++ {
		for j := 1; j <= n; j++ {
			diag := H[i-1][j-1]
			if query[i-1] == ref[j-1] {
				diag += int32(sc.Match)
			} else {
				diag += int32(sc.Mismatch)
			}
			v := diag
			if up := H[i-1][j] + int32(sc.Gap); up > v {
				v = up
			}
			if left := H[i][j-1] + int32(sc.Gap); left > v {
				v = left
			}
			if v < 0 {
				v = 0
			}
			H[i][j] = v
			if v > best {
				best, bi, bj = v, i, j
			}
		}
	}
	if best == 0 {
		return Result{Cells: m * n}, nil
	}
	// Traceback from (bi, bj) to the first zero cell.
	var ops []Op
	i, j := bi, bj
	for i > 0 && j > 0 && H[i][j] > 0 {
		diag := H[i-1][j-1]
		sub := int32(sc.Mismatch)
		if query[i-1] == ref[j-1] {
			sub = int32(sc.Match)
		}
		switch {
		case H[i][j] == diag+sub:
			ops = append(ops, OpMatch)
			i--
			j--
		case H[i][j] == H[i-1][j]+int32(sc.Gap):
			ops = append(ops, OpInsert)
			i--
		default:
			ops = append(ops, OpDelete)
			j--
		}
	}
	reverseOps(ops)
	return Result{
		Score:      int(best),
		QueryStart: i, QueryEnd: bi,
		RefStart: j, RefEnd: bj,
		Ops:   ops,
		Cells: m * n,
	}, nil
}

func reverseOps(ops []Op) {
	for i, j := 0, len(ops)-1; i < j; i, j = i+1, j-1 {
		ops[i], ops[j] = ops[j], ops[i]
	}
}

// ExtendSeed aligns query against the reference window around a seed hit:
// the seed occupies query[qPos:qPos+seedLen] and ref[rPos:rPos+seedLen], and
// the alignment is restricted to the diagonal band of half-width band around
// the seed diagonal — query base i may only pair with reference bases within
// band positions of rPos+(i-qPos). band == 0 allows substitutions but no
// indels. The DP therefore evaluates O(|query|·band) cells rather than the
// full O(|query|·window) matrix, which is what a fixed-width systolic
// extension kernel computes; Result.Cells reports the exact count.
func ExtendSeed(query, ref dna.Seq, qPos, rPos, seedLen, band int, sc Scoring) (Result, error) {
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	if seedLen <= 0 {
		return Result{}, fmt.Errorf("align: seedLen %d must be positive", seedLen)
	}
	if band < 0 {
		return Result{}, fmt.Errorf("align: band %d must be non-negative", band)
	}
	if len(query) == 0 || len(ref) == 0 {
		return Result{}, fmt.Errorf("align: query (%d bases) and reference (%d bases) must be non-empty", len(query), len(ref))
	}
	if qPos < 0 || qPos+seedLen > len(query) {
		return Result{}, fmt.Errorf("align: seed [%d,%d) outside query of length %d", qPos, qPos+seedLen, len(query))
	}
	if rPos < 0 || rPos+seedLen > len(ref) {
		return Result{}, fmt.Errorf("align: seed [%d,%d) outside reference of length %d", rPos, rPos+seedLen, len(ref))
	}
	// Reference window: enough to cover the whole query anchored at the
	// seed, plus band slack each side.
	wStart := max(0, rPos-qPos-band)
	wEnd := min(len(ref), rPos+(len(query)-qPos)+band)
	// The seed pins query position qPos to window column rPos-wStart, so the
	// seed diagonal in window coordinates is their difference.
	res, err := bandedSW(query, ref[wStart:wEnd], (rPos-wStart)-qPos, band, sc)
	if err != nil {
		return Result{}, err
	}
	res.RefStart += wStart
	res.RefEnd += wStart
	return res, nil
}

// bandedSW is local alignment restricted to the diagonal band
// |j - i - delta| <= band in 1-based DP coordinates: query base i-1 may pair
// only with reference base j-1 on a diagonal within band of delta. Cells
// outside the band are unreachable (gap moves may not cross the band edge);
// cells clipped by the reference bounds behave like the zero boundary of
// plain Smith-Waterman, so a band wide enough to hold the optimum reproduces
// SmithWaterman's result exactly.
func bandedSW(query, ref dna.Seq, delta, band int, sc Scoring) (Result, error) {
	m, n := len(query), len(ref)
	if m == 0 || n == 0 {
		return Result{}, nil
	}
	// Row i stores columns i+delta-band .. i+delta+band as H[i*w+k] with
	// k = j - i - delta + band. Row 0 and reference-clipped cells stay zero,
	// the local-alignment restart value.
	w := 2*band + 1
	H := make([]int32, (m+1)*w)
	cells := 0
	best := int32(0)
	bi, bk := 0, 0
	for i := 1; i <= m; i++ {
		jLo := max(1, i+delta-band)
		jHi := min(n, i+delta+band)
		for j := jLo; j <= jHi; j++ {
			k := j - i - delta + band
			cells++
			// The diagonal predecessor (i-1, j-1) shares k; up (i-1, j) is
			// k+1; left (i, j-1) is k-1. Moves off the band edge are
			// disallowed.
			sub := int32(sc.Mismatch)
			if query[i-1] == ref[j-1] {
				sub = int32(sc.Match)
			}
			v := H[(i-1)*w+k] + sub
			if k+1 < w {
				if up := H[(i-1)*w+k+1] + int32(sc.Gap); up > v {
					v = up
				}
			}
			if k-1 >= 0 {
				if left := H[i*w+k-1] + int32(sc.Gap); left > v {
					v = left
				}
			}
			if v < 0 {
				v = 0
			}
			H[i*w+k] = v
			if v > best {
				best, bi, bk = v, i, k
			}
		}
	}
	if best == 0 {
		return Result{Cells: cells}, nil
	}
	// Traceback from the best cell to the first zero cell, mirroring the
	// forward recurrence's preference order (diagonal, up, left).
	var ops []Op
	i, k := bi, bk
	for i > 0 {
		j := i + delta + k - band
		if j <= 0 || H[i*w+k] <= 0 {
			break
		}
		sub := int32(sc.Mismatch)
		if query[i-1] == ref[j-1] {
			sub = int32(sc.Match)
		}
		switch {
		case H[i*w+k] == H[(i-1)*w+k]+sub:
			ops = append(ops, OpMatch)
			i--
		case k+1 < w && H[i*w+k] == H[(i-1)*w+k+1]+int32(sc.Gap):
			ops = append(ops, OpInsert)
			i--
			k++
		default:
			ops = append(ops, OpDelete)
			k--
		}
	}
	reverseOps(ops)
	return Result{
		Score:      int(best),
		QueryStart: i, QueryEnd: bi,
		RefStart: i + delta + k - band, RefEnd: bi + delta + bk - band,
		Ops:   ops,
		Cells: cells,
	}, nil
}
