package core

import (
	"slices"
)

// Seed chaining, the host-side stage between SMEM seeding and banded
// extension (GateSeeder's decomposition: seeding and extension run as
// separate device passes with chaining in between). Seeds that agree on a
// reference diagonal describe the same candidate placement of the read;
// grouping them collapses the per-occurrence seed hits into a short list of
// loci worth extending.

// Seed is one located seed hit: the read slice [QStart, QEnd) matched the
// reference exactly at RPos.
type Seed struct {
	QStart, QEnd int
	RPos         int32
}

// Len returns the seed's match length.
func (s Seed) Len() int { return s.QEnd - s.QStart }

// diagonal returns the implied read-start locus: where the read would begin
// on the reference if the seed's placement were gap-free.
func (s Seed) diagonal() int { return int(s.RPos) - s.QStart }

// Chain is a group of collinear seeds supporting one candidate placement.
type Chain struct {
	// Seeds in read order.
	Seeds []Seed
	// Score is the number of distinct read bases the chain's seeds cover —
	// the chaining heuristic's ranking key: long unique SMEMs dominate short
	// repetitive ones.
	Score int
	// Anchor indexes the longest seed in Seeds, the extension's anchor.
	Anchor int
}

// chainScratch holds the chaining stage's working memory so the per-read
// batch path allocates nothing in steady state: the diagonal-sorted seed
// copy (whose subranges become the chains' seed slices) and the chain list.
type chainScratch struct {
	sorted []Seed
	chains []Chain
}

// chainSeeds groups seeds into collinear chains; see chainScratch.chain.
// This entry allocates a throwaway scratch per call — tests and one-shot
// callers use it; the batch path holds a scratch per worker.
func chainSeeds(seeds []Seed, slop, maxChains int) []Chain {
	var cs chainScratch
	return cs.chain(seeds, slop, maxChains)
}

// chain groups seeds into collinear chains: seeds whose diagonals agree
// within slop (the extension band, the indel budget the downstream DP can
// absorb) and whose read spans advance monotonically join one chain. Chains
// come back sorted by score, best first; at most maxChains survive. The
// returned chains and their seed slices alias the scratch and are valid
// until the next call.
func (cs *chainScratch) chain(seeds []Seed, slop, maxChains int) []Chain {
	if len(seeds) == 0 {
		return nil
	}
	cs.sorted = append(cs.sorted[:0], seeds...)
	sorted := cs.sorted
	slices.SortFunc(sorted, func(a, b Seed) int {
		if d := a.diagonal() - b.diagonal(); d != 0 {
			return d
		}
		return a.QStart - b.QStart
	})
	chains := cs.chains[:0]
	start := 0
	for i := 1; i <= len(sorted); i++ {
		// A diagonal gap wider than the slop starts a new chain: the banded
		// extension could not bridge the implied indel anyway.
		if i < len(sorted) && sorted[i].diagonal()-sorted[i-1].diagonal() <= slop {
			continue
		}
		chains = append(chains, buildChain(sorted[start:i:i]))
		start = i
	}
	slices.SortStableFunc(chains, func(a, b Chain) int { return b.Score - a.Score })
	cs.chains = chains
	if maxChains > 0 && len(chains) > maxChains {
		chains = chains[:maxChains]
	}
	return chains
}

// buildChain assembles one chain from diagonal-grouped seeds: read order,
// coverage score over the union of read spans, and the longest seed as the
// extension anchor. The group is re-sorted in place (it is scratch memory).
func buildChain(group []Seed) Chain {
	c := Chain{Seeds: group}
	slices.SortFunc(c.Seeds, func(a, b Seed) int {
		if a.QStart != b.QStart {
			return a.QStart - b.QStart
		}
		return b.QEnd - a.QEnd
	})
	covered, end := 0, -1
	for i, s := range c.Seeds {
		if s.QStart > end {
			covered += s.Len()
			end = s.QEnd
		} else if s.QEnd > end {
			covered += s.QEnd - end
			end = s.QEnd
		}
		if s.Len() > c.Seeds[c.Anchor].Len() {
			c.Anchor = i
		}
	}
	c.Score = covered
	return c
}
