package fmindex

import (
	"fmt"
	"math/bits"
	"slices"

	"bwaver/internal/dna"
	"bwaver/internal/wavelet"
)

// Group is the scratch of SearchGroup and SMEMsGroup, which run their
// searches in lock step on drive. Reused across calls of either, it grows to
// the largest group once and allocates nothing after that.
type Group struct {
	// wait lists the searches waiting on each kind of load; spare is the
	// storage a list takes while the one it replaces is being served.
	wait  [loadNone][]int32
	spare []int32
	exact exactGroup
	smem  smemGroup
}

// searches are the searches of a group, numbered from 0.
type searches interface {
	// advance runs each search of list to its next load, listed in g.wait.
	advance(g *Group, list []int32)
	// serve performs the loads of one kind the searches of list wait on.
	serve(kind load, list []int32)
}

// drive runs n searches in lock step: each runs to its first load, then
// every round serves the loads one kind at a time and runs the searches it
// served on to their next load, which a later kind or the next round serves.
// The loads of one kind are independent, so their cache misses overlap.
func (g *Group) drive(s searches, n int) {
	for k := range g.wait {
		g.wait[k] = slices.Grow(g.wait[k][:0], n)
	}
	g.spare = slices.Grow(g.spare[:0], n)
	for i := range int32(n) {
		g.spare = append(g.spare, i)
	}
	s.advance(g, g.spare)
	for waiting := true; waiting; {
		waiting = false
		for kind := range g.wait {
			served := g.wait[kind]
			if len(served) == 0 {
				continue
			}
			g.wait[kind], waiting = g.spare[:0], true
			s.serve(load(kind), served)
			s.advance(g, served)
			g.spare = served
		}
	}
}

// exactGroup is the backward searches of SearchGroup, their table counters
// and the wavelet walk's scratch.
type exactGroup struct {
	ix                  *Index
	f                   *Ftab
	patterns            [][]uint8
	ranges              []Range
	steps               []int
	left                []int // symbols of each pattern still to consume
	at                  []exactAt
	found               []hits       // a search's occurrences once it is located
	met                 []uint32     // a tracked search's rows found holds: bit i for row i
	before              []uint64     // the text before each occurrence a loadText serve compares
	want                patternWords // the pattern words finish compares
	lines               int32        // keeps a loadLine serve's reads ahead of the suffix array
	err                 error
	hits, misses, short uint64
	q                   []wavelet.PairQuery
	ranks               wavelet.Group
}

// trackedMax is locateMax with a sampled suffix array: a search whose
// interval has at most this many rows ranks on while it learns their
// positions (exactGroup.track). Of 2, 4, 8 and 16 it is the fastest
// (DESIGN.md "Exact search finishes on the text").
const trackedMax = 8

// exactAt is where advance picks an exact search up.
type exactAt uint8

const (
	exactStart   exactAt = iota // not started
	exactRanked                 // ranking: ranges holds pattern[left:]'s interval
	exactTracked                // exactRanked, found holding the positions met of its rows
	exactLocated                // found holds pattern[left:]'s occurrences
	exactDone                   // finished on the text
)

// SearchGroup runs the backward search of every pattern with the searches
// in lock step: every table bound is read first, then each round steps
// every live search once, its rank pairs resolved together
// (wavelet.Tree.RankPairs). ranges[p] and steps[p] become what
// SearchWithFtabSteps(patterns[p]) returns — or, with useFtab false,
// CountSteps(patterns[p]) — in the form Canonical gives it: once a search's
// interval has at most locateMax rows it is located — its suffix-array line
// read with the group's others, or, on a sampled array, its rows' positions
// read off the samples that its further ranked steps meet — and the rest of
// the pattern compared with the text at every occurrence; LocateGroupAppend
// then reads its positions from g. The table's counters end up as the
// per-pattern searches would leave them. The error is a locate's on a
// corrupt sampled array.
func (ix *Index) SearchGroup(g *Group, patterns [][]uint8, useFtab bool, ranges []Range, steps []int) error {
	e, n := &g.exact, len(patterns)
	*e = exactGroup{ix: ix, patterns: patterns, ranges: ranges, steps: steps,
		left: slices.Grow(e.left[:0], n)[:n], at: slices.Grow(e.at[:0], n)[:n], found: slices.Grow(e.found[:0], n)[:n],
		met: slices.Grow(e.met[:0], n)[:n], before: e.before, want: e.want, q: e.q, ranks: e.ranks}
	if useFtab {
		e.f = ix.ftab
	}
	clear(steps[:n])
	clear(e.at)
	g.drive(e, n)
	if e.f != nil {
		e.f.count(e.hits, e.misses, e.short)
	}
	return e.err
}

// LocateGroupAppend is LocateAppend for pattern p of g's last SearchGroup,
// whose range is r: rows are located through the suffix array, and a range
// that finished on the text takes the positions the search left in g.
func (ix *Index) LocateGroupAppend(dst []int32, g *Group, p int, r Range) ([]int32, error) {
	if !ix.OnText(r) {
		return ix.locateAppend(dst, r)
	}
	at := g.located(p)
	if len(at) != r.Count() {
		return dst, fmt.Errorf("fmindex: a range of %d occurrences on the text, where pattern %d's search found %d", r.Count(), p, len(at))
	}
	return append(dst, at...), nil
}

// located returns the text positions of pattern p of the last exact search
// when it finished on the text, in the order its final rows would list them,
// and nothing otherwise. They stay valid until the next search.
func (g *Group) located(p int) []int32 {
	e := &g.exact
	if p >= len(e.at) || e.at[p] != exactDone {
		return nil
	}
	return e.found[p].pos[:e.found[p].n]
}

// advance starts each search p of list at its first call, asking for its
// table bounds if the table holds its last k symbols. Each later call takes
// one step, asking for its rank pair, until the range empties or the
// pattern is consumed — or until the range has at most locateMax rows: then
// the search asks for their suffix-array line, or, with a sampled array,
// ranks on while it tracks their positions (track), and then for the
// comparison with the text.
func (e *exactGroup) advance(g *Group, list []int32) {
	ix, ranges, steps, left := e.ix, e.ranges, e.steps, e.left
	for _, p := range list {
		pattern := e.patterns[p]
		switch e.at[p] {
		case exactStart:
			ranges[p], left[p], e.at[p] = ix.All(), len(pattern), exactRanked
			if f := e.f; f != nil && len(pattern) < f.k {
				e.short++
			} else if f != nil {
				if _, ok := f.key(pattern); ok {
					e.hits++
					g.wait[loadTable] = append(g.wait[loadTable], p)
					continue
				}
				e.misses++
			}
		case exactLocated:
			g.wait[loadText] = append(g.wait[loadText], p)
			continue
		case exactDone:
			continue
		}
		switch r := ranges[p]; {
		case r.Empty():
			ranges[p] = Range{Start: 1, End: 0}
			continue
		case r.Count() <= ix.locateMax && ix.sa != nil:
			e.at[p] = exactLocated
			g.wait[loadLine] = append(g.wait[loadLine], p)
			continue
		case r.Count() <= ix.locateMax:
			located, err := e.track(p)
			if err != nil {
				e.fail(p, err)
				continue
			}
			if located {
				e.at[p] = exactLocated
				g.wait[loadText] = append(g.wait[loadText], p)
				continue
			}
		case left[p] == 0:
			continue
		}
		left[p], steps[p] = left[p]-1, steps[p]+1
		if int(pattern[left[p]]) >= ix.sigma {
			ranges[p] = Range{Start: 1, End: 0} // Step's answer
			continue
		}
		g.wait[loadRank] = append(g.wait[loadRank], p)
	}
}

// track learns the positions of search p's rows on a sampled array, where
// its interval has at most locateMax rows, and reports whether it knows
// them all. A step that left the count unchanged was an LF step for every
// row, in row order — every row's symbol was the pattern's — so the new row
// i holds the text position left of the old row i's, and the positions met
// so far carry over, one less. After a step that shrank the count, which
// rows survived is unknown, and the search starts over. Then every sampled
// row of the interval gives its position. Once the pattern is consumed, the
// rows still unmet walk to their samples one at a time.
func (e *exactGroup) track(p int32) (bool, error) {
	ix, r, h := e.ix, e.ranges[p], &e.found[p]
	c, met := r.Count(), e.met[p]
	all := uint32(1)<<c - 1
	if e.at[p] != exactTracked || h.n != c {
		h.n, met = c, 0
	} else {
		for m := met; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			if h.pos[i] == 0 {
				return false, errOutside
			}
			h.pos[i]--
		}
	}
	// While the count holds, every row's position drops by one a step, so
	// a row is sampled every rate-th step from the first: a step that meets
	// some row for the first time meets none met before, and the values of
	// its marked rows are consecutive.
	s := ix.sampled
	if marks := s.marked(r.Start, c); marks&^met != 0 {
		k := s.marks.Rank1(r.Start)
		for m := marks; m != 0; m &= m - 1 {
			v := s.values[k]
			if uint(v) > uint(ix.n) {
				return false, errOutside
			}
			h.pos[bits.TrailingZeros32(m)], k = v, k+1
		}
		met |= marks
	}
	if met != all && e.left[p] == 0 {
		for m := all &^ met; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			pos, err := ix.locateOne(r.Start + i)
			if err != nil {
				return false, err
			}
			h.pos[i] = pos
		}
		met = all
	}
	e.met[p], e.at[p] = met, exactTracked
	return met == all, nil
}

// fail ends search p on a locate's error, keeping the first.
func (e *exactGroup) fail(p int32, err error) {
	e.ranges[p], e.at[p] = Range{Start: 1, End: 0}, exactDone
	e.found[p].n = 0
	if e.err == nil {
		e.err = err
	}
}

// serve reads the waiting searches' table bounds or suffix-array lines,
// compares their patterns with the text, or takes their steps.
func (e *exactGroup) serve(kind load, list []int32) {
	ix := e.ix
	switch {
	case kind == loadTable:
		for _, p := range list {
			key, _ := e.f.key(e.patterns[p])
			e.ranges[p], e.steps[p], e.left[p] = e.f.Lookup(key), 1, len(e.patterns[p])-e.f.k
		}
	case kind == loadLine:
		// Every line is read before any is copied, so that their misses
		// overlap.
		lines := int32(0)
		for _, p := range list {
			r := e.ranges[p]
			lines |= ix.sa[r.Start] | ix.sa[r.End]
		}
		e.lines = lines
		for _, p := range list {
			if err := e.found[p].locate(ix, e.ranges[p]); err != nil {
				e.fail(p, err)
			}
		}
	case kind == loadText:
		// Every occurrence's text is read before any is compared, in a loop
		// that does not branch on what it reads, so that the misses overlap.
		t := packedText(ix.text.Words())
		e.before = slices.Grow(e.before[:0], maxLocated*len(list))
		for _, p := range list {
			h := &e.found[p]
			for _, pos := range h.pos[:h.n] {
				e.before = append(e.before, t.before(int(pos)))
			}
		}
		at := 0
		for _, p := range list {
			n := e.found[p].n
			e.finish(p, e.before[at:at+n])
			at += n
		}
	case ix.wocc == nil:
		for _, p := range list {
			e.ranges[p] = ix.Step(e.ranges[p], e.patterns[p][e.left[p]])
		}
	default:
		q := e.q[:0]
		for _, p := range list {
			r := e.ranges[p]
			q = append(q, wavelet.PairQuery{I: ix.compact(r.Start), J: ix.compact(r.End + 1), Sym: e.patterns[p][e.left[p]]})
		}
		e.q = q
		ix.wocc.Tree.RankPairs(q, &e.ranks)
		for k, p := range list {
			c := ix.cFull[q[k].Sym]
			e.ranges[p] = Range{Start: c + q[k].I, End: c + q[k].J - 1}
		}
	}
}

// finish compares the rest of located search p's pattern with the text
// before each occurrence, the first 32 symbols with text[i], its word before
// occurrence i, and keeps, in order, the occurrences where all of
// it matches, moved to where the whole pattern starts: LF keeps the order of
// the rows it maps with one preceding symbol, so these are the final rows'
// positions in row order. The ranked walk would have taken a step for each
// symbol the longest match L spans and one more for the symbol where it
// died, or every remaining symbol when one occurrence survives: min(left,
// L+1) steps either way.
func (e *exactGroup) finish(p int32, text []uint64) {
	h, left, t := &e.found[p], e.left[p], packedText(e.ix.text.Words())
	// Most occurrences differ within the first 32 symbols: the pattern's
	// words are packed once for all of them, the later ones when an
	// occurrence first matches that far.
	e.want.reset(e.patterns[p][:left])
	var kept hits
	longest := 0
	for i, pos := range h.pos[:h.n] {
		x, l := text[i], 0
		for k := 0; ; k++ {
			want, c := e.want.word(k)
			n := common(x, want, min(c, int(pos)-l))
			if l += n; n < dna.BasesPerWord {
				break
			}
			x = t.before(int(pos) - l)
		}
		if l == left {
			kept.pos[kept.n] = pos - int32(left)
			kept.n++
		}
		longest = max(longest, l)
	}
	*h, e.at[p] = kept, exactDone
	e.steps[p] += min(left, longest+1)
	e.ranges[p] = Range{Start: 0, End: kept.n - 1}
	if kept.n == 0 {
		e.ranges[p] = Range{Start: 1, End: 0}
	}
}

// smemGroup is the SMEM searches of SMEMsGroup, each holding its SMEMs
// until the next call.
type smemGroup struct {
	bi *BiIndex
	s  []smemSearch
}

// SMEMsGroup runs the SMEM search of every pattern with the searches in
// lock step: Result(p) is then what SMEMsAppend(nil, patterns[p], minLen)
// returns. A round serves the table bounds, then the suffix-array lines,
// then the first text rounds the searches wait on.
func (bi *BiIndex) SMEMsGroup(g *Group, patterns [][]uint8, minLen int) error {
	if minLen < 1 {
		return errMinLen(minLen)
	}
	s := &g.smem
	s.bi, s.s = bi, append(s.s, make([]smemSearch, max(0, len(patterns)-len(s.s)))...)
	for i, pattern := range patterns {
		q := &s.s[i]
		*q = smemSearch{pattern: pattern, minLen: minLen, out: q.out[:0]}
	}
	g.drive(s, len(patterns))
	return nil
}

func (s *smemGroup) advance(g *Group, list []int32) {
	for _, i := range list {
		if q := &s.s[i]; s.bi.advance(q) {
			g.wait[q.need] = append(g.wait[q.need], i)
		}
	}
}

func (s *smemGroup) serve(_ load, list []int32) {
	for _, i := range list {
		s.bi.serve(&s.s[i])
	}
}

// Result returns pattern p's SMEMs, step count and error from the last
// SMEMsGroup call. The SMEMs stay valid until the next call.
func (g *Group) Result(p int) ([]SMEM, int, error) {
	q := &g.smem.s[p]
	return q.out, q.steps, q.err
}
