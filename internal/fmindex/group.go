package fmindex

import "bwaver/internal/wavelet"

// Group is the scratch of SearchGroup: the state of every search of a
// group, the rank queries of one round and the wavelet walk's own scratch.
// Reused across calls, it grows to the largest group once and allocates
// nothing after that.
type Group struct {
	left  []int   // symbols of each pattern still to consume
	keyed []int32 // the patterns read from the table
	live  []int32 // the searches still stepping
	q     []wavelet.PairQuery
	ranks wavelet.Group
}

// SearchGroup runs the backward search of every pattern, setting ranges[p]
// and steps[p] to what SearchWithFtabSteps(patterns[p]) returns — or, with
// useFtab false, CountSteps(patterns[p]) — with the searches advanced in
// lock step rather than one after another. All table bounds are read first;
// then each round steps every live search once, and a search drops out when
// its range empties or its pattern is consumed. A round resolves its steps'
// rank pairs together (wavelet.Tree.RankPairs), so the independent cache
// misses of the group's searches overlap. The table's counters end up as
// the per-pattern searches would leave them, added once per group.
func (ix *Index) SearchGroup(g *Group, patterns [][]uint8, useFtab bool, ranges []Range, steps []int) {
	if cap(g.left) < len(patterns) {
		g.left = make([]int, len(patterns))
	}
	g.left = g.left[:len(patterns)]
	f := ix.ftab
	if !useFtab {
		f = nil
	}
	var hits, misses, short uint64
	keyed, live := g.keyed[:0], g.live[:0]
	for p, pattern := range patterns {
		ranges[p], steps[p], g.left[p] = ix.All(), 0, len(pattern)
		switch {
		case f == nil:
		case len(pattern) < f.k:
			short++
		default:
			if _, ok := f.key(pattern); ok {
				hits++
				keyed = append(keyed, int32(p))
				continue
			}
			misses++
		}
		if len(pattern) > 0 {
			live = append(live, int32(p))
		}
	}
	for _, p := range keyed {
		key, _ := f.key(patterns[p])
		r := f.Lookup(key)
		ranges[p], steps[p], g.left[p] = r, 1, len(patterns[p])-f.k
		if !r.Empty() && g.left[p] > 0 {
			live = append(live, p)
		}
	}
	if f != nil {
		f.count(hits, misses, short)
	}
	g.keyed, g.live = keyed, live
	for len(live) > 0 {
		live = ix.round(g, live, patterns, ranges, steps)
	}
}

// round steps every live search once and returns those still live, in
// live's own storage.
func (ix *Index) round(g *Group, live []int32, patterns [][]uint8, ranges []Range, steps []int) []int32 {
	if ix.wocc == nil {
		next := live[:0]
		for _, p := range live {
			g.left[p]--
			steps[p]++
			ranges[p] = ix.Step(ranges[p], patterns[p][g.left[p]])
			if !ranges[p].Empty() && g.left[p] > 0 {
				next = append(next, p)
			}
		}
		return next
	}
	q, ranked := g.q[:0], live[:0]
	for _, p := range live {
		g.left[p]--
		steps[p]++
		sym := patterns[p][g.left[p]]
		if int(sym) >= ix.sigma {
			ranges[p] = Range{Start: 1, End: 0} // Step's answer
			continue
		}
		r := ranges[p]
		q = append(q, wavelet.PairQuery{I: ix.compact(r.Start), J: ix.compact(r.End + 1), Sym: sym})
		ranked = append(ranked, p)
	}
	g.q = q
	ix.wocc.Tree.RankPairs(q, &g.ranks)
	next := ranked[:0]
	for k, p := range ranked {
		c := ix.cFull[q[k].Sym]
		ranges[p] = Range{Start: c + q[k].I, End: c + q[k].J - 1}
		if !ranges[p].Empty() && g.left[p] > 0 {
			next = append(next, p)
		}
	}
	return next
}

// SMEMGroup is the scratch of SMEMsGroup: one search state per pattern,
// each holding its SMEMs until the next call, and the searches waiting on
// each kind of load. Reused across calls, it grows to the largest group and
// the most SMEMs a pattern has had once, and allocates nothing after that.
type SMEMGroup struct {
	s []smemSearch
	// wait lists the searches waiting on each kind of load; spare is the
	// storage a list takes while the one it replaces is being served.
	wait  [loadNone][]int32
	spare []int32
}

// SMEMsGroup runs the SMEM search of every pattern with the searches in
// lock step: Result(p) is then what SMEMsAppend(nil, patterns[p], minLen)
// returns. Every search first runs to its first load. Then each round
// serves the group's loads one kind at a time — every waiting search's
// table bounds, then the suffix-array line of every interval now to be
// located, then every first comparison round with the text at a match of
// several occurrences — and after
// each kind lets the searches it served run on to their next load, which a
// later kind of the same round or the next round serves. The loads of one
// kind are independent of one another, so their cache misses overlap.
func (bi *BiIndex) SMEMsGroup(g *SMEMGroup, patterns [][]uint8, minLen int) error {
	if minLen < 1 {
		return errMinLen(minLen)
	}
	n := len(patterns)
	if len(g.s) < n {
		g.s = append(g.s, make([]smemSearch, n-len(g.s))...)
	}
	for k := range g.wait {
		if cap(g.wait[k]) < n {
			g.wait[k] = make([]int32, 0, n)
		}
		g.wait[k] = g.wait[k][:0]
	}
	if cap(g.spare) < n {
		g.spare = make([]int32, 0, n)
	}
	for i, pattern := range patterns {
		q := &g.s[i]
		*q = smemSearch{pattern: pattern, minLen: minLen, out: q.out[:0]}
		g.queue(bi, q, int32(i))
	}
	for waiting := true; waiting; {
		waiting = false
		for kind := range g.wait {
			served := g.wait[kind]
			if len(served) == 0 {
				continue
			}
			g.wait[kind], waiting = g.spare[:0], true
			for _, i := range served {
				bi.serve(&g.s[i])
			}
			for _, i := range served {
				g.queue(bi, &g.s[i], i)
			}
			g.spare = served
		}
	}
	return nil
}

// queue runs search i to its next load and lists it as waiting on that.
func (g *SMEMGroup) queue(bi *BiIndex, q *smemSearch, i int32) {
	if bi.advance(q, false) {
		g.wait[q.need] = append(g.wait[q.need], i)
	}
}

// Result returns pattern p's SMEMs, step count and error from the last
// SMEMsGroup call. The SMEMs stay valid until the next call.
func (g *SMEMGroup) Result(p int) ([]SMEM, int, error) {
	q := &g.s[p]
	return q.out, q.steps, q.err
}
