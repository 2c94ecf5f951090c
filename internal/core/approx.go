package core

import (
	"bwaver/internal/dna"
	"bwaver/internal/fmindex"
)

// Approximate mapping — the paper's future-work extension (§V): backward
// search tolerating up to k substitutions, applied to both the read and its
// reverse complement.

// ApproxResult is the k-mismatch analogue of MapResult.
type ApproxResult struct {
	// Forward and Reverse hold the match strata of each orientation.
	Forward, Reverse []fmindex.ApproxMatch
	// Steps is the larger per-orientation count of backward-search steps
	// the branching search executed (the two orientations run in parallel
	// pipelines, like the exact kernel).
	Steps int
}

// Mapped reports whether any stratum of either orientation matched.
func (r ApproxResult) Mapped() bool { return len(r.Forward) > 0 || len(r.Reverse) > 0 }

// Occurrences counts matches across both orientations and all strata.
func (r ApproxResult) Occurrences() int {
	return fmindex.TotalOccurrences(r.Forward) + fmindex.TotalOccurrences(r.Reverse)
}

// BestMismatches returns the lowest mismatch count among all matches, or -1
// if nothing matched.
func (r ApproxResult) BestMismatches() int {
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

// approxWork is k-mismatch mapping as a workload value.
type approxWork struct {
	pooledBuf
	ix            *Index
	maxMismatches int
}

func (approxWork) unit() int { return 1 }

// chunk is the mem path's: one branching search costs tens of exact lookups.
func (approxWork) chunk() int { return 16 }

func (w approxWork) mapUnits(buf *mapBuffer, reads []dna.Seq, dst []ApproxResult) error {
	fm := w.ix.fm
	for i, read := range reads {
		fwPattern, rcPattern := buf.patterns(read)
		fw, fwSteps, err := fm.CountApproxSteps(fwPattern, w.maxMismatches)
		if err != nil {
			return err
		}
		rc, rcSteps, err := fm.CountApproxSteps(rcPattern, w.maxMismatches)
		if err != nil {
			return err
		}
		dst[i] = ApproxResult{Forward: fw, Reverse: rc, Steps: max(fwSteps, rcSteps)}
	}
	return nil
}

// MapReadsApprox maps a batch of reads with up to maxMismatches
// substitutions each, distributing reads over opts.Workers goroutines
// (0/1 serial, -1 all CPUs). Context and Progress apply as in MapReads;
// Locate is ignored (the result holds match strata, not positions).
func (ix *Index) MapReadsApprox(reads []dna.Seq, maxMismatches int, opts MapOptions) ([]ApproxResult, error) {
	results := make([]ApproxResult, len(reads))
	w := approxWork{ix: ix, maxMismatches: maxMismatches}
	if err := mapBatch(w, results, reads, opts); err != nil {
		return nil, err
	}
	return results, nil
}

// MapReadApprox maps one read and its reverse complement with up to
// maxMismatches substitutions per orientation.
func (ix *Index) MapReadApprox(read dna.Seq, maxMismatches int) (ApproxResult, error) {
	results, err := ix.MapReadsApprox([]dna.Seq{read}, maxMismatches, MapOptions{})
	if err != nil {
		return ApproxResult{}, err
	}
	return results[0], nil
}
