package fmindex

import (
	"fmt"
	"sync"
)

// Super-maximal exact matches (Li 2012, the seeding algorithm of BWA-MEM):
// an SMEM is an exact match between a pattern slice and the text that is
// not contained in any other exact match of the pattern. SMEMs make far
// better seeds than fixed-length fragments because they adapt their length
// to the local repeat structure — long in unique regions, short where the
// text is repetitive.

// SMEM is one super-maximal exact match.
type SMEM struct {
	// Start and End delimit the pattern slice, half-open.
	Start, End int
	// Rows is the bidirectional interval of the match.
	Rows BiRange
}

// Len returns the match length.
func (s SMEM) Len() int { return s.End - s.Start }

type biCandidate struct {
	rows BiRange
	end  int
	key  uint32 // short-table key of the match while it is at most k long
}

// smemScratch holds the per-pivot working state of the SMEM search so a
// steady-state caller allocates nothing: the two candidate generations of
// the backward pass and the per-pivot emission buffer. Pooled because SMEM
// search runs concurrently on batch workers.
type smemScratch struct {
	curr, prev []biCandidate
	pivot      []SMEM
}

var smemScratchPool = sync.Pool{New: func() any { return new(smemScratch) }}

// SMEMs returns every SMEM of pattern with length >= minLen, in pattern
// order.
func (bi *BiIndex) SMEMs(pattern []uint8, minLen int) ([]SMEM, error) {
	out, _, err := bi.SMEMsSteps(pattern, minLen)
	return out, err
}

// SMEMsSteps is SMEMs also reporting the number of bidirectional extension
// operations the search executed — the per-pattern work measure a pipelined
// seeding kernel retires one per cycle, so it drives the FPGA simulator's
// pass-1 cycle model.
func (bi *BiIndex) SMEMsSteps(pattern []uint8, minLen int) ([]SMEM, int, error) {
	return bi.SMEMsAppend(nil, pattern, minLen)
}

// SMEMsAppend is SMEMsSteps appending into dst instead of allocating a
// fresh result slice: with a caller-reused dst of sufficient capacity the
// whole search is allocation-free in steady state (the per-pivot working
// state lives in a pooled scratch). Results, ordering, and the step count
// are identical to SMEMsSteps.
func (bi *BiIndex) SMEMsAppend(dst []SMEM, pattern []uint8, minLen int) ([]SMEM, int, error) {
	if minLen < 1 {
		return dst, 0, fmt.Errorf("fmindex: minimum SMEM length %d must be >= 1", minLen)
	}
	sc := smemScratchPool.Get().(*smemScratch)
	steps := 0
	x := 0
	for x < len(pattern) {
		mems, next, n := bi.smemsFromPivot(sc, pattern, x)
		steps += n
		for _, m := range mems {
			if m.Len() >= minLen {
				dst = append(dst, m)
			}
		}
		x = next
	}
	smemScratchPool.Put(sc)
	// Pivot-order emission is per-pivot sorted by start already; across
	// pivots starts strictly increase, so dst stays in pattern order.
	return dst, steps, nil
}

// smemsFromPivot returns all SMEMs containing position x (unfiltered), the
// next pivot (the end of the longest match through x), and the number of
// extension operations performed. The returned slice aliases sc.pivot and
// is valid until the next call with the same scratch.
func (bi *BiIndex) smemsFromPivot(sc *smemScratch, pattern []uint8, x int) ([]SMEM, int, int) {
	steps := 0
	sym := pattern[x]
	if int(sym) >= bi.sigma {
		return nil, x + 1, steps
	}
	steps++
	ik, key := bi.extendLeftAt(bi.All(), 0, 0, sym)
	if ik.Empty() {
		return nil, x + 1, steps
	}

	// Forward pass: extend right from the pivot, recording the interval
	// before every size drop. curr ends up holding the match [x, end) for
	// each distinct right-maximality level.
	curr := sc.curr[:0]
	for i := x + 1; ; i++ {
		if i == len(pattern) {
			curr = append(curr, biCandidate{rows: ik, end: i, key: key})
			break
		}
		steps++
		ik1, key1 := bi.extendRightAt(ik, i-x, key, pattern[i])
		if ik1.Count() != ik.Count() {
			curr = append(curr, biCandidate{rows: ik, end: i, key: key})
		}
		if ik1.Empty() {
			break
		}
		ik, key = ik1, key1
	}
	// Longest first.
	for a, b := 0, len(curr)-1; a < b; a, b = a+1, b-1 {
		curr[a], curr[b] = curr[b], curr[a]
	}
	nextPivot := curr[0].end

	// Backward pass: march the left edge from x-1 downwards. An element
	// that can no longer extend left while nothing longer survived this
	// round is a super-maximal match. The two generations ping-pong between
	// the scratch's slices.
	out := sc.pivot[:0]
	prevBuf := sc.prev[:0]
	for j := x - 1; ; j-- {
		prev := prevBuf[:0]
		sizeLast := -1
		emitted := false
		for _, cand := range curr {
			ext := biCandidate{end: cand.end}
			if j >= 0 {
				steps++
				ext.rows, ext.key = bi.extendLeftAt(cand.rows, cand.end-j-1, cand.key, pattern[j])
			}
			if j < 0 || ext.rows.Empty() {
				// cand dies here. It is super-maximal iff nothing longer
				// survived (prev empty) and nothing longer already died at
				// this same left edge (emitted).
				if len(prev) == 0 && !emitted {
					out = append(out, SMEM{Start: j + 1, End: cand.end, Rows: cand.rows})
					emitted = true
				}
				continue
			}
			if ext.rows.Count() != sizeLast {
				sizeLast = ext.rows.Count()
				prev = append(prev, ext)
			}
		}
		if len(prev) == 0 {
			break
		}
		curr, prevBuf = prev, curr[:0]
	}
	// out was emitted with decreasing end / decreasing start; reverse to
	// pattern order.
	for a, b := 0, len(out)-1; a < b; a, b = a+1, b-1 {
		out[a], out[b] = out[b], out[a]
	}
	// Persist the (possibly regrown) buffers for the next pivot. curr and
	// prevBuf may be either of sc.curr/sc.prev after the ping-pong; keep
	// both by capacity so growth is retained.
	sc.curr, sc.prev, sc.pivot = curr[:0], prevBuf[:0], out
	return out, nextPivot, steps
}
