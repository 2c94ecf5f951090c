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
	return s.Rows.count()
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

// SMEMsAppend appends every SMEM of pattern with length >= minLen to dst, in
// pattern order, and returns them with the number of bidirectional
// extension operations the search executed — the per-pattern work measure a
// pipelined seeding kernel retires one per cycle, so it drives the FPGA
// simulator's pass-1 cycle model. The search itself holds no state beyond
// one match, so with a caller-reused dst of sufficient capacity it allocates
// nothing. A locate that fails (a corrupt index) is returned as the error.
// It runs one search, serving each of its loads as it asks; SMEMsGroup runs
// many in lock step.
func (bi *BiIndex) SMEMsAppend(dst []SMEM, pattern []uint8, minLen int) ([]SMEM, int, error) {
	if minLen < 1 {
		return dst, 0, errMinLen(minLen)
	}
	q := smemSearch{pattern: pattern, minLen: minLen, out: dst}
	for bi.advance(&q) {
		bi.serve(&q)
	}
	return q.out, q.steps, q.err
}

func errMinLen(minLen int) error {
	return fmt.Errorf("fmindex: minimum SMEM length %d must be >= 1", minLen)
}

// smemSearch is the SMEM search of one pattern, resumable at the three
// loads of its walk that wait on memory: a window's table bounds, the
// suffix-array line of an interval it locates, and the first round that
// compares the pattern with the text at a located match's occurrences,
// when it has several. advance runs it up to its next such load, which
// serve performs; everything else — ranked extensions, the bisection for an
// absent window's longest present suffix, LF walks to samples, later
// comparison rounds and the sweep along a single occurrence — runs inside
// advance, where the walk meets it.
//
// The walk is the forward–backward one over L(e) and R(s): a window of
// minLen symbols opens at x and is extended left (the left walk, bounded by
// lo), and a match found to start at L(e) is extended right to R(s) (the
// right walk) and emitted. The match in hand is P[s, e).
type smemSearch struct {
	pattern []uint8
	minLen  int
	out     []SMEM
	steps   int
	err     error

	x, s, e, lo int
	// outer is set while the left walk extends the window at x, clear while
	// it extends left from one past the last SMEM's end.
	outer bool
	// key is the window's table key while its bounds are awaited.
	key uint32
	m   match
	// kept reports whether the first comparison round kept an occurrence,
	// in which case m holds those it kept.
	kept bool
	at   resume
	need load
}

// resume is where advance picks a search up.
type resume uint8

const (
	atWindow       resume = iota // open the window at x
	atLeftRows                   // the window's rows are in m.rows
	atLeftRank                   // rank left from s
	atLeftLocated                // m is located: compare the text before it
	atLeftRound                  // the text before m is compared
	atLeftEnd                    // the left walk stopped at s
	atRight                      // extend P[s, e) right
	atRightLocated               // m is located: compare the text after it
	atRightRound                 // the text after m is compared
	atEmit                       // the right walk stopped at e: locate m
	atEmitLocated                // emit m
)

// load is what a waiting search asks for, in the order Group.drive serves
// it: the SMEM search asks for the first three, the backward search of
// SearchGroup for all four.
type load uint8

const (
	loadTable load = iota // a window's or a pattern's bounds in a prefix table
	loadLine              // the suffix-array line of a located interval's rows
	loadText              // a comparison with the text at located occurrences
	loadRank              // one backward-search step's rank pair
	loadNone              // the search waits on nothing
)

// serve performs the load q waits on.
func (bi *BiIndex) serve(q *smemSearch) {
	switch q.need {
	case loadTable:
		q.m.rows = bi.window(q.e-q.s, q.key)
	case loadLine:
		q.err = bi.locate(&q.m)
	case loadText:
		var h hits
		if q.at == atLeftRound {
			h = bi.text.keepBefore(q.m.hits, q.pattern[q.s-1])
		} else {
			h = bi.text.keepAt(q.m.hits, q.e-q.s, bi.length(), q.pattern[q.e])
		}
		// A round that keeps nothing leaves the match as it was, as a
		// failed extension leaves the interval.
		if q.kept = h.n > 0; q.kept {
			q.m.hits = h
		}
	}
}

// valid reports whether the pattern symbol is in the index's alphabet.
func (bi *BiIndex) valid(a uint8) bool { return int(a) < bi.sigma }

// advance runs q up to its next load and reports whether it waits on one;
// false means it is done. The common path from one load to the next falls
// through the cases in order: the switch is taken about once a load.
func (bi *BiIndex) advance(q *smemSearch) bool {
	p := q.pattern
	for q.err == nil {
		q.need = loadNone
		switch q.at {
		case atWindow:
			// Invariant: no SMEM of minLen or more starts before x, so
			// L(x+minLen) >= x.
			if q.x+q.minLen > len(p) {
				return false
			}
			q.e, q.outer = q.x+q.minLen, true
			bi.beginLeft(q, q.x)
		case atLeftRows:
			// The window of the first up to k symbols is read with one table
			// lookup; only when it is absent is its longest occurring suffix
			// bisected for.
			w := q.e - q.s
			if q.m.rows.empty() {
				l := bi.ftab.presentSuffix(w, int(q.key))
				q.steps += l + 1
				if q.m.key, q.m.rows = q.key&(1<<(2*l)-1), bi.all(); l > 0 {
					q.m.rows = bi.window(l, q.m.key)
				}
				q.s, q.at = q.e-l, atLeftEnd
				break
			}
			q.steps += w
			q.m.key = q.key
			fallthrough
		case atLeftRank:
			// Beyond k, every extension ranks until the match has at most
			// locateMax occurrences, and from then on the pattern is compared
			// with the text before each of them.
			q.at = atLeftEnd
			for ; q.s > q.lo && bi.valid(p[q.s-1]); q.s-- {
				if q.m.rows.count() <= bi.locateMax {
					bi.locateThen(q, atLeftLocated)
					break
				}
				q.steps++
				r := bi.extendLeft(q.m.rows, p[q.s-1])
				if r.empty() {
					break
				}
				q.m.rows = r
			}
			if q.at != atLeftLocated || q.waits() {
				break
			}
			fallthrough
		case atLeftLocated:
			// One comparison round is one step, as one left extension was.
			// A round over several occurrences reads as many text lines and
			// waits for them; one occurrence is swept here.
			q.kept = false
			if q.m.n > 1 && q.s > q.lo && bi.valid(p[q.s-1]) {
				q.steps++
				q.at, q.need = atLeftRound, loadText
				break
			}
			bi.leftByText(q)
			fallthrough
		case atLeftRound:
			if q.kept {
				q.s--
				bi.leftByText(q)
			}
			fallthrough
		case atLeftEnd:
			// The left walk returned L(e), or where it stopped at lo.
			if q.outer && q.s > q.x {
				// P[s-1, x+minLen) is absent: no long match starts in [x, s-1].
				q.x, q.at = q.s, atWindow
				break
			}
			if !q.outer && q.e-q.s < q.minLen {
				// Every later SMEM starts at or after L(e) = s, which holds
				// fewer than minLen symbols: open the window there.
				q.x, q.at = q.s, atWindow
				break
			}
			// The window matched whole and L(x+minLen) = x, so x = L(R(x));
			// or L(e) already carries minLen symbols and starts an SMEM.
			fallthrough
		case atRight:
			// Extend right until the match has at most locateMax
			// occurrences, then compare the text after each of them.
			q.at = atEmit
			for ; q.e < len(p) && bi.valid(p[q.e]); q.e++ {
				if q.m.rows.count() <= bi.locateMax {
					bi.locateThen(q, atRightLocated)
					break
				}
				q.steps++
				r, k := bi.extendRightAt(q.m.rows, q.e-q.s, q.m.key, p[q.e])
				if r.empty() {
					break
				}
				q.m.rows, q.m.key = r, k
			}
			if q.at != atRightLocated || q.waits() {
				break
			}
			fallthrough
		case atRightLocated:
			q.kept = false
			if q.m.n > 1 && q.e < len(p) && bi.valid(p[q.e]) {
				q.steps++
				q.at, q.need = atRightRound, loadText
				break
			}
			bi.rightByText(q)
			fallthrough
		case atRightRound:
			if q.kept {
				q.e++
				bi.rightByText(q)
			}
			fallthrough
		case atEmit:
			if bi.locateThen(q, atEmitLocated); q.waits() {
				break
			}
			fallthrough
		case atEmitLocated:
			q.out = append(q.out, SMEM{Start: q.s, End: q.e, Rows: q.m.rows, Located: q.m.n, Pos: q.m.pos})
			if q.e == len(p) {
				return false
			}
			// Every later SMEM starts at or after L(e+1) > s.
			q.e, q.outer = q.e+1, false
			bi.beginLeft(q, 0)
		}
		if q.need != loadNone {
			return true
		}
	}
	q.need = loadNone
	return false
}

// waits reports whether q stops here: to wait for a load, or on an error.
func (q *smemSearch) waits() bool {
	return q.need != loadNone || q.err != nil
}

// beginLeft starts the left walk from e, not past lo and not over a symbol
// outside the alphabet, with the empty match: it takes up to k symbols into
// the window's table key, and the search waits for the window's bounds
// unless the window is empty.
func (bi *BiIndex) beginLeft(q *smemSearch, lo int) {
	p, end := q.pattern, q.e
	s, key := end, uint32(0)
	for ; end-s < bi.k && s > lo && bi.valid(p[s-1]); s-- {
		key |= uint32(p[s-1]) << (2 * (end - s))
	}
	q.s, q.lo, q.key, q.m = s, lo, key, match{rows: bi.all()}
	q.at = atLeftRank
	if s < end {
		q.at, q.need = atLeftRows, loadTable
	}
}

// locateThen resumes q at next once m is located. A match already located,
// or of more than locateMax rows, needs nothing; one located through
// samples walks LF here; otherwise the search waits for m's suffix-array
// line.
func (bi *BiIndex) locateThen(q *smemSearch, next resume) {
	q.at = next
	switch {
	case q.m.n > 0 || q.m.rows.count() > bi.locateMax:
	case bi.fwd.sa != nil:
		q.need = loadLine
	default:
		q.err = bi.locate(&q.m)
	}
}

// leftByText extends the located match P[s, e) left, not past lo — after
// its first comparison round, if it had one — by comparing the pattern
// with the text before each occurrence: it keeps those whose preceding
// symbol agrees with the pattern's, in row order — LF keeps the order of
// the rows it maps with one preceding symbol — counting one step a round,
// the failing one too, unless the pattern ends the walk first. Once one
// occurrence is left, the pattern and the text before it are compared in
// one sweep.
func (bi *BiIndex) leftByText(q *smemSearch) {
	p, m := q.pattern, &q.m
	for ; m.n > 1 && q.s > q.lo && bi.valid(p[q.s-1]); q.s-- {
		q.steps++
		h := bi.text.keepBefore(m.hits, p[q.s-1])
		if h.n == 0 {
			return
		}
		m.hits = h
	}
	if m.n == 1 {
		n := bi.text.commonSuffix(int(m.pos[0]), p[q.lo:q.s])
		q.s, m.pos[0], q.steps = q.s-n, m.pos[0]-int32(n), q.steps+n
		if q.s > q.lo && bi.valid(p[q.s-1]) {
			q.steps++
		}
	}
}

// rightByText is leftByText's mirror after the text: occurrences stay in
// row order, since rows sharing a prefix sort by what follows it.
func (bi *BiIndex) rightByText(q *smemSearch) {
	p, m := q.pattern, &q.m
	for ; m.n > 1 && q.e < len(p) && bi.valid(p[q.e]); q.e++ {
		q.steps++
		h := bi.text.keepAt(m.hits, q.e-q.s, bi.length(), p[q.e])
		if h.n == 0 {
			return
		}
		m.hits = h
	}
	if m.n == 1 {
		n := bi.text.commonPrefix(int(m.pos[0])+q.e-q.s, bi.length(), p[q.e:])
		q.e, q.steps = q.e+n, q.steps+n
		if q.e < len(p) && bi.valid(p[q.e]) {
			q.steps++
		}
	}
}

// match is what a search knows of the slice it holds: its interval and,
// while it is at most k symbols long, its table key. Once the interval has
// at most bi.locateMax rows, they are located: the match becomes the hits,
// with rows empty; it has no hits before that.
type match struct {
	rows BiRange
	key  uint32
	hits
}

// hits are the text positions pos[:n] of a match's occurrences, in row
// order; the rest of pos is zero, so that searches reaching one match by
// different paths report equal SMEMs.
type hits struct {
	n   int
	pos [maxLocated]int32
}

// locate locates m if it is not yet located and has few enough rows.
func (bi *BiIndex) locate(m *match) error {
	if m.n > 0 || m.rows.count() > bi.locateMax {
		return nil
	}
	err := m.hits.locate(bi.fwd, m.rows.Fwd)
	m.rows = emptyBiRange
	return err
}

// locate sets h to the text positions of r's rows, at most maxLocated of
// them, in row order.
func (h *hits) locate(ix *Index, r Range) error {
	at, err := ix.locateAppend(h.pos[:0], r)
	h.n = len(at)
	return err
}
