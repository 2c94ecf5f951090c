package fmindex

import "fmt"

// Approximate (k-mismatch) search. The paper lists extending BWaveR "to
// approximate string matching" as future work (§V) and its related work
// (Fernandez et al., Arram et al.) describes FM-index kernels supporting
// one and two substitutions; this file implements that extension: a
// branching backward search that explores substituted symbols while the
// mismatch budget lasts. Time grows exponentially with the budget — the
// reason the paper's related work stops hardware designs at two mismatches;
// MaxMismatchBudget is where this search stops accepting one.

// ApproxMatch is one match range at a specific mismatch count.
type ApproxMatch struct {
	Range      Range
	Mismatches int
}

// MaxMismatchBudget is the largest budget CountApproxSteps accepts — the server
// validates a job's mismatches parameter against it, the CLI gets the search's
// error — so every mapping path takes budgets 0 to 4. It caps the fan-out:
// each extra substitution multiplies the strings explored by about three
// times the pattern length. The hardware designs stop at two; budgets 3 and 4
// are a host-side allowance above them.
const MaxMismatchBudget = 4

// CountApproxSteps appends to dst the row ranges of every string within
// maxMismatches substitutions of pattern that occurs in the text
// (insertions/deletions are not explored), and returns them with the number
// of backward-search steps the branching search executed, which the FPGA
// simulator charges cycles for. Ranges of distinct generated strings are
// disjoint, and the exact-match range (if any) is reported with
// Mismatches == 0. A pattern symbol outside the alphabet is a forced
// substitution: every branch at its position costs one mismatch, as the
// exact search counts it a miss. A caller that searches into the strata of
// its last search (dst[:0]) reuses their storage.
func (ix *Index) CountApproxSteps(dst []ApproxMatch, pattern []uint8, maxMismatches int) ([]ApproxMatch, int, error) {
	if maxMismatches < 0 || maxMismatches > MaxMismatchBudget {
		return nil, 0, fmt.Errorf("fmindex: mismatch budget %d outside [0,%d]", maxMismatches, MaxMismatchBudget)
	}
	s := approxSearch{ix: ix, pattern: pattern, budget: maxMismatches, matches: dst}
	s.extend(len(pattern)-1, ix.All(), 0)
	return s.matches, s.steps, nil
}

// approxSearch is one branching search: a method rather than a recursive
// closure, so that its state stays on the caller's stack.
type approxSearch struct {
	ix      *Index
	pattern []uint8
	budget  int
	matches []ApproxMatch
	steps   int
}

// extend takes r, the rows of pattern[i+1:] with mm substitutions, one
// symbol further back on every branch the budget allows.
func (s *approxSearch) extend(i int, r Range, mm int) {
	if i < 0 {
		s.matches = append(s.matches, ApproxMatch{Range: r, Mismatches: mm})
		return
	}
	for sym := uint8(0); int(sym) < s.ix.sigma; sym++ {
		cost := 0
		if sym != s.pattern[i] {
			cost = 1
		}
		if mm+cost > s.budget {
			continue
		}
		s.steps++
		next := s.ix.Step(r, sym)
		if next.Empty() {
			continue
		}
		s.extend(i-1, next, mm+cost)
	}
}

// TotalOccurrences sums the row counts of a match set.
func TotalOccurrences(matches []ApproxMatch) int {
	total := 0
	for _, m := range matches {
		total += m.Range.Count()
	}
	return total
}
