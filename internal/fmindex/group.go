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
