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
	// Rows is the bidirectional interval of a match the search did not
	// locate, and empty for one it did.
	Rows BiRange
	// Located is the number of occurrences of a match the search located,
	// 0 for one it did not; Pos[:Located] are their text positions in row
	// order, and the rest of Pos is zero.
	Located int
	Pos     [maxLocated]int32
}

// maxLocated is the most occurrences a match may have for the search to
// locate it and read the text from then on, when the forward direction holds
// the full suffix array: one 64-byte cache line of its int32 entries. With a
// sampled array each occurrence costs an LF walk, so only a match that occurs
// once is located.
const maxLocated = 16

// Count returns the number of occurrences.
func (s SMEM) Count() int {
	if s.Located > 0 {
		return s.Located
	}
	return s.Rows.Count()
}

// Positions returns the text positions of a located match in row order — the
// order LocateAppend returns its interval's in — and nil for a match the
// search did not locate.
func (s *SMEM) Positions() []int32 {
	if s.Located == 0 {
		return nil
	}
	return s.Pos[:s.Located]
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
// fresh result slice: the search itself holds no state beyond one match,
// so with a caller-reused dst of sufficient capacity it allocates nothing.
// Results, ordering, and the step count are identical to SMEMsSteps. A
// locate that fails (a corrupt index) is returned as the error.
func (bi *BiIndex) SMEMsAppend(dst []SMEM, pattern []uint8, minLen int) ([]SMEM, int, error) {
	if minLen < 1 {
		return dst, 0, fmt.Errorf("fmindex: minimum SMEM length %d must be >= 1", minLen)
	}
	steps := 0
	var m match
	// Invariant: no SMEM of minLen or more starts before x, so L(x+minLen) >= x.
	for x := 0; x+minLen <= len(pattern); {
		s, err := bi.longestEndingAt(pattern, x+minLen, x, &m, &steps)
		if err != nil {
			return dst, steps, err
		}
		if s > x {
			x = s // P[s-1, x+minLen) is absent: no long match starts in [x, s-1]
			continue
		}
		// The window matched whole and L(x+minLen) = x, so x = L(R(x)).
		for e := x + minLen; ; {
			if e, err = bi.longestStartingAt(pattern, s, e, &m, &steps); err == nil {
				err = bi.locate(&m)
			}
			if err != nil {
				return dst, steps, err
			}
			dst = append(dst, SMEM{Start: s, End: e, Rows: m.rows, Located: m.n, Pos: m.pos})
			if e == len(pattern) {
				return dst, steps, nil
			}
			// Every later SMEM starts at or after L(e+1) > s. A start that
			// already carries minLen symbols is an SMEM: extend it right from
			// the match in hand; otherwise open the window there.
			e++
			if s, err = bi.longestEndingAt(pattern, e, 0, &m, &steps); err != nil {
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

// match is what the search knows of the slice it holds — one at a time, in
// SMEMsAppend's frame: its interval and, while it is at most k symbols
// long, its table key. Once the interval has at most bi.locateMax rows,
// they are located: the match becomes the hits, with rows empty; it has no
// hits before that.
type match struct {
	rows BiRange
	key  uint32
	hits
}

// hits are the text positions pos[:n] of a match's occurrences, in row
// order; the rest of pos is zero, so that searches reaching one match by
// different paths report equal SMEMs. The search hands hits to the text by
// value: they stay on its stack.
type hits struct {
	n   int
	pos [maxLocated]int32
}

// locate locates m if it is not yet located and has few enough rows.
func (bi *BiIndex) locate(m *match) error {
	if m.n > 0 || m.rows.Count() > bi.locateMax {
		return nil
	}
	at, err := bi.fwd.LocateAppend(m.pos[:0], m.rows.Fwd)
	m.rows, m.n = emptyBiRange, len(at)
	return err
}

// longestEndingAt extends the empty match left from end, not past lo and
// not over a symbol outside the alphabet, and returns where it stopped —
// L(end) when that is lo or more — leaving the match P[start, end) in m.
// The window of the first up to k symbols is read with one table lookup —
// the reverse table only for an interval that stays ranked; only when it is
// absent is its longest occurring suffix bisected for.
// Beyond k, every extension ranks until the match has at most bi.locateMax
// occurrences, and from then on compares the pattern with the text before
// each of them. Steps are counted as the walk one symbol at a time takes
// them, the failing extension included.
func (bi *BiIndex) longestEndingAt(pattern []uint8, end, lo int, m *match, steps *int) (int, error) {
	s, key := end, uint32(0)
	for ; end-s < bi.k && s > lo && int(pattern[s-1]) < bi.sigma; s-- {
		key |= uint32(pattern[s-1]) << (2 * (end - s))
	}
	*m = match{rows: bi.All()}
	if w := end - s; w > 0 {
		if m.rows = bi.window(w, key); m.rows.Empty() {
			l := bi.ftab.presentSuffix(w, int(key))
			*steps += l + 1
			if m.key, m.rows = key&(1<<(2*l)-1), bi.All(); l > 0 {
				m.rows = bi.window(l, m.key)
			}
			return end - l, nil
		}
		*steps += w
		m.key = key
	}
	for ; s > lo && int(pattern[s-1]) < bi.sigma; s-- {
		if m.rows.Count() <= bi.locateMax {
			return bi.leftByText(pattern, s, lo, m, steps)
		}
		*steps++
		r := bi.ExtendLeft(m.rows, pattern[s-1])
		if r.Empty() {
			break
		}
		m.rows = r
	}
	return s, nil
}

// leftByText extends the match P[s, ·) left, not past lo, by comparing the
// pattern with the text before each of its occurrences and keeping those
// that agree. Kept occurrences stay in row order: LF keeps the order of the
// rows it maps with one preceding symbol. One comparison round is one step,
// as one left extension was — the failing one too, unless the pattern ends
// the walk first. Once one occurrence is left, the pattern and the text
// before it are compared in one sweep.
func (bi *BiIndex) leftByText(pattern []uint8, s, lo int, m *match, steps *int) (int, error) {
	if err := bi.locate(m); err != nil {
		return s, err
	}
	for ; m.n > 1 && s > lo && int(pattern[s-1]) < bi.sigma; s-- {
		*steps++
		h := bi.text.keepBefore(m.hits, pattern[s-1])
		if h.n == 0 {
			return s, nil
		}
		m.hits = h
	}
	if m.n == 1 {
		n := bi.text.commonSuffix(int(m.pos[0]), pattern[lo:s])
		s, m.pos[0], *steps = s-n, m.pos[0]-int32(n), *steps+n
		if s > lo && int(pattern[s-1]) < bi.sigma {
			*steps++
		}
	}
	return s, nil
}

// longestStartingAt extends the match m of P[start, end) right and returns
// R(start), leaving the match P[start, R(start)) in m. Once it has at most
// bi.locateMax occurrences, it compares the pattern with the text after
// each of them.
func (bi *BiIndex) longestStartingAt(pattern []uint8, start, end int, m *match, steps *int) (int, error) {
	for ; end < len(pattern) && int(pattern[end]) < bi.sigma; end++ {
		if m.rows.Count() <= bi.locateMax {
			return bi.rightByText(pattern, start, end, m, steps)
		}
		*steps++
		r, k := bi.extendRightAt(m.rows, end-start, m.key, pattern[end])
		if r.Empty() {
			break
		}
		m.rows, m.key = r, k
	}
	return end, nil
}

// rightByText extends the match P[start, end) right by comparing the
// pattern with the text after each of its occurrences, keeping those that
// agree — in row order, since rows sharing a prefix sort by what follows it —
// and counting steps as leftByText does.
func (bi *BiIndex) rightByText(pattern []uint8, start, end int, m *match, steps *int) (int, error) {
	if err := bi.locate(m); err != nil {
		return end, err
	}
	for ; m.n > 1 && end < len(pattern) && int(pattern[end]) < bi.sigma; end++ {
		*steps++
		h := bi.text.keepAt(m.hits, end-start, pattern[end])
		if h.n == 0 {
			return end, nil
		}
		m.hits = h
	}
	if m.n == 1 {
		n := bi.text.commonPrefix(int(m.pos[0])+end-start, pattern[end:])
		end, *steps = end+n, *steps+n
		if end < len(pattern) && int(pattern[end]) < bi.sigma {
			*steps++
		}
	}
	return end, nil
}

// textView is the text a BiIndex was built over, in the caller's own
// element type, so that the index shares the caller's array instead of
// copying it.
type textView interface {
	// keepBefore returns, in order, the positions p of h whose preceding
	// symbol is a, each moved to p-1.
	keepBefore(h hits, a uint8) hits
	// keepAt returns, in order, the positions p of h whose symbol at p+off
	// is a.
	keepAt(h hits, off int, a uint8) hits
	// commonSuffix returns how many symbols text[:p] and pattern have in
	// common at their ends.
	commonSuffix(p int, pattern []uint8) int
	// commonPrefix returns how many symbols text[p:] and pattern have in
	// common at their starts.
	commonPrefix(p int, pattern []uint8) int
}

type textOf[E ~uint8] []E

func (t textOf[E]) keepBefore(h hits, a uint8) hits {
	var kept hits
	for _, p := range h.pos[:h.n] {
		if p > 0 && uint8(t[p-1]) == a {
			kept.pos[kept.n] = p - 1
			kept.n++
		}
	}
	return kept
}

func (t textOf[E]) keepAt(h hits, off int, a uint8) hits {
	var kept hits
	for _, p := range h.pos[:h.n] {
		if q := int(p) + off; q < len(t) && uint8(t[q]) == a {
			kept.pos[kept.n] = p
			kept.n++
		}
	}
	return kept
}

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
