package fmindex

import "fmt"

// Super-maximal exact matches (Li 2012, the seeding algorithm of BWA-MEM):
// an SMEM is an exact match between a pattern slice and the text that is
// not contained in any other exact match of the pattern. SMEMs make far
// better seeds than fixed-length fragments because they adapt their length
// to the local repeat structure — long in unique regions, short where the
// text is repetitive.
//
// The search is the forward–backward one of ropebwt3 (Li 2024) over two
// non-decreasing functions of the pattern P: L(e), the start of the longest
// match ending at e, and R(s), the end of the longest match starting at s.
// [s,e) is an SMEM exactly when s = L(e) and e = R(s). A window of the
// minimum length skips stretches that cannot hold a long enough SMEM.

// SMEM is one super-maximal exact match.
type SMEM struct {
	// Start and End delimit the pattern slice, half-open.
	Start, End int
	// Rows is the bidirectional interval of the match.
	Rows BiRange
}

// Len returns the match length.
func (s SMEM) Len() int { return s.End - s.Start }

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
// fresh result slice: the search itself holds no state beyond one interval,
// so with a caller-reused dst of sufficient capacity it allocates nothing.
// Results, ordering, and the step count are identical to SMEMsSteps.
func (bi *BiIndex) SMEMsAppend(dst []SMEM, pattern []uint8, minLen int) ([]SMEM, int, error) {
	if minLen < 1 {
		return dst, 0, fmt.Errorf("fmindex: minimum SMEM length %d must be >= 1", minLen)
	}
	steps := 0
	// Invariant: no SMEM of minLen or more starts before x, so L(x+minLen) >= x.
	for x := 0; x+minLen <= len(pattern); {
		s, rows, key := bi.longestEndingAt(pattern, x+minLen, x, &steps)
		if s > x {
			x = s // P[s-1, x+minLen) is absent: no long match starts in [x, s-1]
			continue
		}
		// The window matched whole and L(x+minLen) = x, so x = L(R(x)).
		for e := x + minLen; ; {
			e, rows = bi.longestStartingAt(pattern, s, e, rows, key, &steps)
			dst = append(dst, SMEM{Start: s, End: e, Rows: rows})
			if e == len(pattern) {
				return dst, steps, nil
			}
			// Every later SMEM starts at or after L(e+1) > s. A start that
			// already carries minLen symbols is an SMEM: extend it right from
			// the interval in hand; otherwise open the window there.
			e++
			s, rows, key = bi.longestEndingAt(pattern, e, 0, &steps)
			if e-s < minLen {
				x = s
				break
			}
		}
	}
	return dst, steps, nil
}

// longestEndingAt extends the empty match left from end, not past lo and
// not over a symbol outside the alphabet, and returns where it stopped —
// L(end) when that is lo or more — with the interval and table key of
// P[start, end). The window of the first up to k symbols is read with one
// table lookup; only when it is absent is its longest occurring suffix
// bisected for. Beyond k, every extension ranks. Steps are counted as the
// walk one symbol at a time takes them, the failing extension included.
func (bi *BiIndex) longestEndingAt(pattern []uint8, end, lo int, steps *int) (int, BiRange, uint32) {
	s, key := end, uint32(0)
	for ; end-s < bi.k && s > lo && int(pattern[s-1]) < bi.sigma; s-- {
		key |= uint32(pattern[s-1]) << (2 * (end - s))
	}
	rows := bi.All()
	if w := end - s; w > 0 {
		if rows = bi.lookup(w, key); rows.Empty() {
			l := bi.ftab.presentSuffix(w, int(key))
			*steps += l + 1
			if key, rows = key&(1<<(2*l)-1), bi.All(); l > 0 {
				rows = bi.lookup(l, key)
			}
			return end - l, rows, key
		}
		*steps += w
	}
	for ; s > lo && int(pattern[s-1]) < bi.sigma; s-- {
		*steps++
		r := bi.ExtendLeft(rows, pattern[s-1])
		if r.Empty() {
			break
		}
		rows = r
	}
	return s, rows, key
}

// longestStartingAt extends the match P[start, end) right, rows and key
// being its interval and table key, and returns R(start) with the
// interval of P[start, R(start)).
func (bi *BiIndex) longestStartingAt(pattern []uint8, start, end int, rows BiRange, key uint32, steps *int) (int, BiRange) {
	for ; end < len(pattern) && int(pattern[end]) < bi.sigma; end++ {
		*steps++
		r, k := bi.extendRightAt(rows, end-start, key, pattern[end])
		if r.Empty() {
			break
		}
		rows, key = r, k
	}
	return end, rows
}
