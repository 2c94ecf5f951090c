package fmindex

import (
	"slices"

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
	hits, misses, short uint64
	q                   []wavelet.PairQuery
	ranks               wavelet.Group
}

// SearchGroup runs the backward search of every pattern, setting ranges[p]
// and steps[p] to what SearchWithFtabSteps(patterns[p]) returns — or, with
// useFtab false, CountSteps(patterns[p]) — with the searches in lock step:
// every table bound is read first, then each round steps every live search
// once, its rank pairs resolved together (wavelet.Tree.RankPairs). The
// table's counters end up as the per-pattern searches would leave them.
func (ix *Index) SearchGroup(g *Group, patterns [][]uint8, useFtab bool, ranges []Range, steps []int) {
	e, n := &g.exact, len(patterns)
	*e = exactGroup{ix: ix, patterns: patterns, ranges: ranges, steps: steps, left: slices.Grow(e.left[:0], n)[:n], q: e.q, ranks: e.ranks}
	if useFtab {
		e.f = ix.ftab
	}
	clear(steps[:n])
	g.drive(e, n)
	if e.f != nil {
		e.f.count(e.hits, e.misses, e.short)
	}
}

// advance starts each search p of list at its first call, asking for its
// table bounds if the table holds its last k symbols (p has taken no step
// before); each later call takes one step, asking for its rank pair, until
// the range empties or the pattern is consumed.
func (e *exactGroup) advance(g *Group, list []int32) {
	ranges, steps, left := e.ranges, e.steps, e.left
	for _, p := range list {
		pattern := e.patterns[p]
		if steps[p] == 0 {
			ranges[p], left[p] = e.ix.All(), len(pattern)
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
		}
		if ranges[p].Empty() || left[p] == 0 {
			continue
		}
		left[p], steps[p] = left[p]-1, steps[p]+1
		if int(pattern[left[p]]) >= e.ix.sigma {
			ranges[p] = Range{Start: 1, End: 0} // Step's answer
			continue
		}
		g.wait[loadRank] = append(g.wait[loadRank], p)
	}
}

// serve reads the waiting searches' table bounds, or takes their steps.
func (e *exactGroup) serve(kind load, list []int32) {
	ix := e.ix
	switch {
	case kind == loadTable:
		for _, p := range list {
			key, _ := e.f.key(e.patterns[p])
			e.ranges[p], e.steps[p], e.left[p] = e.f.Lookup(key), 1, len(e.patterns[p])-e.f.k
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
