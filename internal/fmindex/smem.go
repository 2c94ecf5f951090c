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
	// Rows is the bidirectional interval of a repeated match, and SingleRow
	// for a match that occurs once.
	Rows BiRange
	// Pos is the text position of a match that occurs once, -1 for a
	// repeated one.
	Pos int32
}

// SingleRow stands for the interval of a match that occurs once. The search
// stops ranking such a match (it reads the text instead), so it never learns
// the row; SingleRow counts one, and two searches that reach the same match
// by different paths report the same SMEM.
var SingleRow = BiRange{Fwd: Range{Start: -1, End: -1}, Rev: Range{Start: -1, End: -1}}

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
// fresh result slice: the search itself holds no state beyond one match,
// so with a caller-reused dst of sufficient capacity it allocates nothing.
// Results, ordering, and the step count are identical to SMEMsSteps. A
// locate that fails (a corrupt index) is returned as the error.
func (bi *BiIndex) SMEMsAppend(dst []SMEM, pattern []uint8, minLen int) ([]SMEM, int, error) {
	if minLen < 1 {
		return dst, 0, fmt.Errorf("fmindex: minimum SMEM length %d must be >= 1", minLen)
	}
	steps := 0
	// Invariant: no SMEM of minLen or more starts before x, so L(x+minLen) >= x.
	for x := 0; x+minLen <= len(pattern); {
		s, m, err := bi.longestEndingAt(pattern, x+minLen, x, &steps)
		if err != nil {
			return dst, steps, err
		}
		if s > x {
			x = s // P[s-1, x+minLen) is absent: no long match starts in [x, s-1]
			continue
		}
		// The window matched whole and L(x+minLen) = x, so x = L(R(x)).
		for e := x + minLen; ; {
			if e, m, err = bi.longestStartingAt(pattern, s, e, m, &steps); err == nil {
				m, err = bi.located(m)
			}
			if err != nil {
				return dst, steps, err
			}
			dst = append(dst, SMEM{Start: s, End: e, Rows: m.rows, Pos: int32(m.pos)})
			if e == len(pattern) {
				return dst, steps, nil
			}
			// Every later SMEM starts at or after L(e+1) > s. A start that
			// already carries minLen symbols is an SMEM: extend it right from
			// the match in hand; otherwise open the window there.
			e++
			if s, m, err = bi.longestEndingAt(pattern, e, 0, &steps); err != nil {
				return dst, steps, err
			}
			if e-s < minLen {
				x = s
				break
			}
		}
	}
	return dst, steps, nil
}

// match is what the search knows of the slice it holds: its interval and,
// while it is at most k symbols long, its table key. Once the interval is
// one row, the row is located and the match becomes its text position pos,
// with rows SingleRow; pos is -1 before that.
type match struct {
	rows BiRange
	key  uint32
	pos  int
}

// located returns m with its one row, if it has one, located.
func (bi *BiIndex) located(m match) (match, error) {
	if m.pos >= 0 || m.rows.Count() != 1 {
		return m, nil
	}
	pos, err := bi.fwd.locateRow(m.rows.Fwd.Start)
	return match{rows: SingleRow, pos: pos}, err
}

// longestEndingAt extends the empty match left from end, not past lo and
// not over a symbol outside the alphabet, and returns where it stopped —
// L(end) when that is lo or more — with the match P[start, end). The window
// of the first up to k symbols is read with one table lookup; only when it
// is absent is its longest occurring suffix bisected for. Beyond k, every
// extension ranks until the match occurs once, and from then on compares
// the pattern with the text before its occurrence. Steps are counted as the
// walk one symbol at a time takes them, the failing extension included.
func (bi *BiIndex) longestEndingAt(pattern []uint8, end, lo int, steps *int) (int, match, error) {
	s, key := end, uint32(0)
	for ; end-s < bi.k && s > lo && int(pattern[s-1]) < bi.sigma; s-- {
		key |= uint32(pattern[s-1]) << (2 * (end - s))
	}
	m := match{rows: bi.All(), pos: -1}
	if w := end - s; w > 0 {
		if m.rows = bi.lookup(w, key); m.rows.Empty() {
			l := bi.ftab.presentSuffix(w, int(key))
			*steps += l + 1
			if m.key, m.rows = key&(1<<(2*l)-1), bi.All(); l > 0 {
				m.rows = bi.lookup(l, m.key)
			}
			return end - l, m, nil
		}
		*steps += w
		m.key = key
	}
	for ; s > lo && int(pattern[s-1]) < bi.sigma; s-- {
		if m.rows.Count() == 1 {
			return bi.leftByText(pattern, s, lo, m, steps)
		}
		*steps++
		r := bi.ExtendLeft(m.rows, pattern[s-1])
		if r.Empty() {
			break
		}
		m.rows = r
	}
	return s, m, nil
}

// leftByText extends the match P[s, ·), which occurs once, left as far as
// the text before its occurrence agrees with the pattern, not past lo. One
// comparison is one step, as one left extension was: the failing one too,
// unless the pattern ends the sweep first.
func (bi *BiIndex) leftByText(pattern []uint8, s, lo int, m match, steps *int) (int, match, error) {
	m, err := bi.located(m)
	if err != nil {
		return s, m, err
	}
	n := bi.text.commonSuffix(m.pos, pattern[lo:s])
	s, m.pos, *steps = s-n, m.pos-n, *steps+n
	if s > lo && int(pattern[s-1]) < bi.sigma {
		*steps++
	}
	return s, m, nil
}

// longestStartingAt extends the match m of P[start, end) right and returns
// R(start) with the match P[start, R(start)). Once the match occurs once, it
// compares the pattern with the text after its occurrence.
func (bi *BiIndex) longestStartingAt(pattern []uint8, start, end int, m match, steps *int) (int, match, error) {
	for ; end < len(pattern) && int(pattern[end]) < bi.sigma; end++ {
		if m.rows.Count() == 1 {
			return bi.rightByText(pattern, start, end, m, steps)
		}
		*steps++
		r, k := bi.extendRightAt(m.rows, end-start, m.key, pattern[end])
		if r.Empty() {
			break
		}
		m.rows, m.key = r, k
	}
	return end, m, nil
}

// rightByText extends the match P[start, end), which occurs once, right as
// far as the text after its occurrence agrees with the pattern, counting
// steps as leftByText does.
func (bi *BiIndex) rightByText(pattern []uint8, start, end int, m match, steps *int) (int, match, error) {
	m, err := bi.located(m)
	if err != nil {
		return end, m, err
	}
	n := bi.text.commonPrefix(m.pos+end-start, pattern[end:])
	end, *steps = end+n, *steps+n
	if end < len(pattern) && int(pattern[end]) < bi.sigma {
		*steps++
	}
	return end, m, nil
}

// textView is the text a BiIndex was built over, in the caller's own
// element type, so that the index shares the caller's array instead of
// copying it.
type textView interface {
	// commonSuffix returns how many symbols text[:p] and pattern have in
	// common at their ends.
	commonSuffix(p int, pattern []uint8) int
	// commonPrefix returns how many symbols text[p:] and pattern have in
	// common at their starts.
	commonPrefix(p int, pattern []uint8) int
}

type textOf[E ~uint8] []E

func (t textOf[E]) commonSuffix(p int, pattern []uint8) int {
	before, n := t[:p], 0
	for n < len(before) && n < len(pattern) && uint8(before[len(before)-1-n]) == pattern[len(pattern)-1-n] {
		n++
	}
	return n
}

// commonPrefix takes p up to the text's end: a corrupt sampled suffix array
// can locate a match too close to it, and must not make the search panic.
func (t textOf[E]) commonPrefix(p int, pattern []uint8) int {
	after, n := t[min(p, len(t)):], 0
	for n < len(after) && n < len(pattern) && uint8(after[n]) == pattern[n] {
		n++
	}
	return n
}
