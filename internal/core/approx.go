package core

import (
	"fmt"

	"bwaver/internal/dna"
	"bwaver/internal/fmindex"
)

// Approximate mapping — the paper's future-work extension (§V), with the
// semantics of the two-pass design its related work describes (Arram et al.,
// §II): a read is matched exactly first, and only a read neither orientation
// of which occurs goes through the branching k-mismatch search. A read that
// maps exactly therefore answers with its exact hits alone, however many
// in-budget neighbours it has. Every backend runs this one workload; the
// device model prices it, the server encodes it.

// ApproxResult is the k-mismatch analogue of MapResult.
type ApproxResult struct {
	// Exact is pass 1: the exact search of both orientations.
	Exact MapResult
	// Forward and Reverse hold the match strata pass 2 found for each
	// orientation. Both are empty when Exact mapped: pass 2 did not run.
	Forward, Reverse []fmindex.ApproxMatch
	// Steps is the larger per-orientation count of backward-search steps
	// the branching search executed (the two orientations run in parallel
	// pipelines, like the exact kernel); 0 when pass 2 did not run.
	Steps int
}

// Mapped reports whether the read matched, exactly or within the budget.
func (r ApproxResult) Mapped() bool {
	return r.Exact.Mapped() || len(r.Forward) > 0 || len(r.Reverse) > 0
}

// Occurrences counts matches across both orientations: the exact hits, or
// every stratum of the rescue.
func (r ApproxResult) Occurrences() int {
	return r.Exact.Occurrences() + fmindex.TotalOccurrences(r.Forward) + fmindex.TotalOccurrences(r.Reverse)
}

// BestMismatches returns the lowest mismatch count among all matches — 0 for
// an exact hit — or -1 if nothing matched.
func (r ApproxResult) BestMismatches() int {
	if r.Exact.Mapped() {
		return 0
	}
	best := -1
	for _, set := range [][]fmindex.ApproxMatch{r.Forward, r.Reverse} {
		for _, m := range set {
			if best == -1 || m.Mismatches < best {
				best = m.Mismatches
			}
		}
	}
	return best
}

// approxWork is exact-then-rescue k-mismatch mapping as a workload value.
// Pass 1 is the exact workload's search, on its scratch, with useFtab gating
// the prefix table and locate the exact hits' positions as they do there;
// the branching search of pass 2 never consults the table.
type approxWork struct {
	exactWork
	maxMismatches int
}

// chunk is the mem path's: one branching search costs tens of exact lookups.
func (approxWork) chunk() int { return 16 }

// mapUnits searches the chunk's 2·16 exact patterns as one group, then runs
// the branching search on both patterns of every read that missed, and
// locates the exact hits when w locates.
func (w approxWork) mapUnits(buf *chunkBuffer, reads []dna.Seq, dst []ApproxResult) error {
	// Checked here, not left to the search: a chunk of exact hits never
	// reaches it and must fail on a bad budget like any other.
	if w.maxMismatches < 0 || w.maxMismatches > fmindex.MaxMismatchBudget {
		return fmt.Errorf("core: mismatch budget %d outside [0,%d]", w.maxMismatches, fmindex.MaxMismatchBudget)
	}
	if err := w.search(buf, reads); err != nil {
		return err
	}
	fm := w.ix.fm
	for i, read := range reads {
		// The strata go where the result held its last ones, as located
		// positions do, so mapping into the same results again reuses them.
		res := ApproxResult{Exact: w.result(buf, i, dst[i].Exact), Forward: dst[i].Forward[:0], Reverse: dst[i].Reverse[:0]}
		if !res.Exact.Mapped() && len(read) > 0 {
			var fwSteps, rcSteps int
			var err error
			if res.Forward, fwSteps, err = fm.CountApproxSteps(res.Forward, buf.pats[2*i], w.maxMismatches); err != nil {
				return err
			}
			if res.Reverse, rcSteps, err = fm.CountApproxSteps(res.Reverse, buf.pats[2*i+1], w.maxMismatches); err != nil {
				return err
			}
			res.Steps = max(fwSteps, rcSteps)
		}
		dst[i] = res
	}
	if w.locate {
		return buf.locate(fm, len(dst), func(i int) *MapResult { return &dst[i].Exact })
	}
	return nil
}

// MapReadsApprox maps a batch of reads exactly and, where that fails, with
// up to maxMismatches substitutions, distributing reads over opts.Workers
// goroutines (0/1 serial, -1 all CPUs). Context, Progress and Locate apply
// as in MapReads: Locate fills the exact hits' positions, and pass 2's
// strata stay row ranges (fmindex.Index.LocateAppend).
func (ix *Index) MapReadsApprox(reads []dna.Seq, maxMismatches int, opts MapOptions) ([]ApproxResult, error) {
	results := make([]ApproxResult, len(reads))
	if err := ix.MapReadsApproxFtab(results, reads, maxMismatches, opts, true); err != nil {
		return nil, err
	}
	return results, nil
}

// MapReadsApproxFtab is MapReadsApprox into a caller-provided result slice
// (len(dst) must equal len(reads)) with explicit prefix-table control for
// pass 1, as MapReadsIntoFtab has it for exact mapping.
func (ix *Index) MapReadsApproxFtab(dst []ApproxResult, reads []dna.Seq, maxMismatches int, opts MapOptions, useFtab bool) error {
	return mapBatch(approxWork{exactWork: exactWork{ix: ix, useFtab: useFtab, locate: opts.Locate}, maxMismatches: maxMismatches}, dst, reads, opts)
}

// MapReadApprox maps one read and its reverse complement, exactly or else
// with up to maxMismatches substitutions per orientation.
func (ix *Index) MapReadApprox(read dna.Seq, maxMismatches int) (ApproxResult, error) {
	results, err := ix.MapReadsApprox([]dna.Seq{read}, maxMismatches, MapOptions{})
	if err != nil {
		return ApproxResult{}, err
	}
	return results[0], nil
}
