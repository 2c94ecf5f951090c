package align

import (
	"fmt"

	"bwaver/internal/dna"
)

// defaultZDrop is the default early-termination threshold: extension rows
// stop once the running row maximum has fallen this far below the best score
// seen. With +2/-3/-5 scoring a 100-point deficit needs 50 consecutive
// matching rows to recover, which real short-read alignments never do.
const defaultZDrop = 100

// Extender is the seed-extension engine: a banded local-alignment DP with
// two work-cutting heuristics (z-drop early termination and adaptive band
// growth), computed in caller-owned scratch so steady-state extension
// allocates nothing. Extender{ZDrop: -1} switches both off and evaluates
// every band cell. An Extender is not safe for concurrent use; batch
// workers each own one.
//
// Result.Ops returned by the methods alias the Extender's op slab: they stay
// valid across subsequent calls (the slab grows, it is not recycled) until
// Reset truncates it, which callers do once per read after consuming the
// results.
type Extender struct {
	// ZDrop is the early-termination threshold: 0 selects defaultZDrop, a
	// negative value disables z-drop (every band row is evaluated).
	ZDrop int
	// BandStart, when positive and smaller than the caller's band, starts
	// the DP at this half-width and doubles it — re-running the extension —
	// whenever the banded optimum looks band-limited (it touches the band
	// edge or no positive cell was found). A zero BandStart disables
	// adaptive growth and runs the full band immediately.
	BandStart int

	h   []int32
	ops []Op
}

// Reset truncates the op slab. Call once per read, after the read's results
// have been consumed (rendered to CIGAR or discarded).
func (e *Extender) Reset() { e.ops = e.ops[:0] }

func (e *Extender) zdrop() int {
	switch {
	case e.ZDrop < 0:
		return 0
	case e.ZDrop == 0:
		return defaultZDrop
	}
	return e.ZDrop
}

// grid returns the scratch DP array resized to n cells and zeroed.
func (e *Extender) grid(n int) []int32 {
	if cap(e.h) < n {
		e.h = make([]int32, n)
	} else {
		e.h = e.h[:n]
		clear(e.h)
	}
	return e.h
}

// ExtendSeed aligns query against the reference window around a seed hit:
// the seed occupies query[qPos:qPos+seedLen] and ref[rPos:rPos+seedLen], and
// the alignment is restricted to the diagonal band of half-width band around
// the seed diagonal — query base i may only pair with reference bases within
// band positions of rPos+(i-qPos). band == 0 allows substitutions but no
// indels. The DP therefore evaluates O(|query|·band) cells rather than the
// full O(|query|·window) matrix, which is what a fixed-width systolic
// extension kernel computes. The reference window is derived from the full
// band, so an adaptive run that grew all the way to band is cell-for-cell
// the full-band computation. Result.Cells accumulates every evaluated cell
// across adaptive re-runs, which is the work a device kernel would also
// re-issue.
func (e *Extender) ExtendSeed(query, ref dna.Seq, qPos, rPos, seedLen, band int, sc Scoring) (Result, error) {
	if err := sc.validate(); err != nil {
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
	// seed, plus band slack each side. The seed pins query position qPos to
	// window column rPos-wStart, so the seed diagonal in window coordinates
	// is their difference.
	wStart := max(0, rPos-qPos-band)
	wEnd := min(len(ref), rPos+(len(query)-qPos)+band)
	win := ref[wStart:wEnd]
	delta := (rPos - wStart) - qPos

	b := band
	if e.BandStart > 0 && e.BandStart < band {
		b = e.BandStart
	}
	cells := 0
	for {
		res, edge := e.bandedSW(query, win, delta, b, sc)
		cells += res.Cells
		// A run at the full band is authoritative. A narrower run is
		// accepted only when its optimum is clearly not band-limited:
		// something aligned, and neither the best cell nor its traceback
		// touched the outermost diagonals.
		if b >= band || (res.Score > 0 && !edge) {
			res.Cells = cells
			res.RefStart += wStart
			res.RefEnd += wStart
			return res, nil
		}
		b *= 2
		if b > band {
			b = band
		}
	}
}

// bandedSW is local alignment restricted to the diagonal band
// |j - i - delta| <= band in 1-based DP coordinates, filled in the scratch
// grid: query base i-1 may pair only with reference base j-1 on a diagonal
// within band of delta. Cells outside the band are unreachable (gap moves
// may not cross the band edge); cells clipped by the reference bounds behave
// like the zero boundary of plain Smith-Waterman, so a band wide enough to
// hold the optimum, without z-drop, reproduces full Smith-Waterman's result
// exactly. It applies z-drop — rows stop once the row maximum falls ZDrop
// below the best score after the best row — and reports whether the
// returned optimum touched the outermost band diagonals, the signal the
// adaptive caller keys escalation on.
func (e *Extender) bandedSW(query, ref dna.Seq, delta, band int, sc Scoring) (Result, bool) {
	m, n := len(query), len(ref)
	if m == 0 || n == 0 {
		return Result{}, false
	}
	// Row i of the band is H[i*s : i*s+w], k = j - i - delta + band, and
	// one zero pad column follows it: the up-neighbour of k = w-1 reads 0,
	// which loses to the clamp at 0 since Gap < 0, as an absent one does.
	w := 2*band + 1
	s := w + 1
	H := e.grid((m + 1) * s)
	match, mismatch, gap := int32(sc.Match), int32(sc.Mismatch), int32(sc.Gap)
	zd := int32(0)
	if z := e.zdrop(); z > 0 {
		zd = int32(z)
	}
	cells := 0
	best := int32(0)
	bi, bk, bestRow := 0, 0, 0
	for i := 1; i <= m; i++ {
		jLo := max(1, i+delta-band)
		jHi := min(n, i+delta+band)
		rowMax := int32(0)
		if jLo <= jHi {
			// The row's cells k = kLo.. sit over the previous row's k and
			// k+1, its diagonal and up neighbours; the left neighbour of kLo
			// is 0 or absent.
			kLo := jLo - i - delta + band
			cur, r := H[i*s:(i+1)*s], ref[jLo-1:jHi]
			cells += len(r)
			rowMax = fillRow(cur[kLo:], H[(i-1)*s+kLo:i*s], r, query[i-1], match, mismatch, gap)
			// The first cell of the row holding its maximum is where a
			// row-major scan for a strictly larger score stops.
			if rowMax > best {
				best, bi, bestRow = rowMax, i, i
				for bk = kLo; cur[bk] != rowMax; bk++ {
				}
			}
		}
		// Z-drop: once past the best row, a row whose maximum has sunk more
		// than ZDrop below the best cannot plausibly recover; stop charging
		// cells for it.
		if zd > 0 && i > bestRow && rowMax+zd < best {
			break
		}
	}
	if best == 0 {
		return Result{Cells: cells}, false
	}
	// Traceback from the best cell, mirroring the forward preference order
	// (diagonal, up, left). Ops append to the slab and are reversed in
	// place; edge reports any visit to the outermost diagonals.
	edge := bk == 0 || bk == w-1
	opsStart := len(e.ops)
	i, k := bi, bk
	for i > 0 {
		j := i + delta + k - band
		if j <= 0 || H[i*s+k] <= 0 {
			break
		}
		if k == 0 || k == w-1 {
			edge = true
		}
		sub := mismatch
		if query[i-1] == ref[j-1] {
			sub = match
		}
		switch {
		case H[i*s+k] == H[(i-1)*s+k]+sub:
			e.ops = append(e.ops, OpMatch)
			i--
		case k+1 < w && H[i*s+k] == H[(i-1)*s+k+1]+gap:
			e.ops = append(e.ops, OpInsert)
			i--
			k++
		default:
			e.ops = append(e.ops, OpDelete)
			k--
		}
	}
	sub := e.ops[opsStart:len(e.ops):len(e.ops)]
	reverseOps(sub)
	return Result{
		Score:      int(best),
		QueryStart: i, QueryEnd: bi,
		RefStart: i + delta + k - band, RefEnd: bi + delta + bk - band,
		Ops:   sub,
		Cells: cells,
	}, edge
}

// SmithWaterman computes the best local alignment of query against ref in
// the Extender's scratch: full local DP, no band, no heuristics (the rescue
// path wants the exact optimum over the insert window). The tests hold it
// to a plain full-matrix reference. Allocation-free in steady state.
func (e *Extender) SmithWaterman(query, ref dna.Seq, sc Scoring) (Result, error) {
	if err := sc.validate(); err != nil {
		return Result{}, err
	}
	m, n := len(query), len(ref)
	if m == 0 || n == 0 {
		return Result{}, nil
	}
	w := n + 1
	H := e.grid((m + 1) * w)
	best := int32(0)
	bi, bj := 0, 0
	for i := 1; i <= m; i++ {
		// Row i's cells j = 1..n sit one column right of their diagonal
		// neighbours in row i-1; column 0 stays 0.
		cur := H[i*w+1 : (i+1)*w]
		rowMax := fillRow(cur, H[(i-1)*w:i*w], ref, query[i-1], int32(sc.Match), int32(sc.Mismatch), int32(sc.Gap))
		if rowMax > best {
			best, bi = rowMax, i
			for bj = 1; cur[bj-1] != rowMax; bj++ {
			}
		}
	}
	if best == 0 {
		return Result{Cells: m * n}, nil
	}
	opsStart := len(e.ops)
	i, j := bi, bj
	for i > 0 && j > 0 && H[i*w+j] > 0 {
		diag := H[(i-1)*w+j-1]
		sub := int32(sc.Mismatch)
		if query[i-1] == ref[j-1] {
			sub = int32(sc.Match)
		}
		switch {
		case H[i*w+j] == diag+sub:
			e.ops = append(e.ops, OpMatch)
			i--
			j--
		case H[i*w+j] == H[(i-1)*w+j]+int32(sc.Gap):
			e.ops = append(e.ops, OpInsert)
			i--
		default:
			e.ops = append(e.ops, OpDelete)
			j--
		}
	}
	sub := e.ops[opsStart:len(e.ops):len(e.ops)]
	reverseOps(sub)
	return Result{
		Score:      int(best),
		QueryStart: i, QueryEnd: bi,
		RefStart: j, RefEnd: bj,
		Ops:   sub,
		Cells: m * n,
	}, nil
}

// fillRow computes one row of the local-alignment recurrence for query base
// q against reference bases r: cur[x] from prev[x] (the diagonal), prev[x+1]
// (up) and cur[x-1] (left, 0 before cur[0]), clamped at 0. It returns the
// row's maximum. Both kernels call it once per row. It is kept out of line:
// the loop inside bandedSW kept its running values on the stack, and inlined
// back into the kernels it measures slower.
//
//go:noinline
func fillRow(cur, prev []int32, r dna.Seq, q dna.Base, match, mismatch, gap int32) int32 {
	cur, diag, up := cur[:len(r)], prev[:len(r)], prev[1:len(r)+1]
	left, rowMax := int32(0), int32(0)
	for x, c := range r {
		sub := mismatch
		if q == c {
			sub = match
		}
		v := max(diag[x]+sub, up[x]+gap, left+gap, 0)
		cur[x], left = v, v
		rowMax = max(rowMax, v)
	}
	return rowMax
}
