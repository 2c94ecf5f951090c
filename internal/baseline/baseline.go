// Package baseline implements the Bowtie2-equivalent CPU mapper BWaveR is
// compared against in Tables I and II of the paper.
//
// The paper runs Bowtie2 with "-a --score-min C,0,-1", which restricts it to
// reporting all and only the exact matches of each read — i.e. exactly the
// FM-index backward-search workload, executed over Bowtie's classic index
// layout: the BWT kept as 2-bit packed symbols with occurrence counts
// checkpointed at cache-line intervals, queries distributed over a worker
// pool. Bowtie2 itself is closed off to this offline environment, so this
// package re-implements that algorithmic class from scratch (see DESIGN.md's
// substitution table); it measures the same design point — a sampled,
// non-succinct index on a general-purpose CPU — that the paper measured.
package baseline

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"bwaver/internal/bwt"
	"bwaver/internal/dna"
	"bwaver/internal/fmindex"
	"bwaver/internal/suffixarray"
)

// Mapper is the baseline exact-match mapper.
type Mapper struct {
	fm *fmindex.Index
}

// Result is one read's mapping outcome, covering both strands as Bowtie2
// does for unpaired reads.
type Result struct {
	Forward, Reverse                   fmindex.Range
	ForwardPositions, ReversePositions []int32
}

// mapped reports whether either orientation matched.
func (r Result) mapped() bool { return !r.Forward.Empty() || !r.Reverse.Empty() }

// occurrences counts matches across both strands.
func (r Result) occurrences() int { return r.Forward.Count() + r.Reverse.Count() }

// NewMapper builds the checkpointed FM-index over the reference.
func NewMapper(ref dna.Seq) (*Mapper, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("baseline: empty reference")
	}
	text := make([]uint8, len(ref))
	for i, b := range ref {
		text[i] = uint8(b)
	}
	sa, err := suffixarray.Build(text, dna.AlphabetSize)
	if err != nil {
		return nil, fmt.Errorf("baseline: suffix array: %w", err)
	}
	transform, err := bwt.Transform(text, sa)
	if err != nil {
		return nil, fmt.Errorf("baseline: bwt: %w", err)
	}
	occ, err := fmindex.NewCheckpointOcc(transform.Data)
	if err != nil {
		return nil, fmt.Errorf("baseline: occ: %w", err)
	}
	fm, err := fmindex.New(transform, dna.AlphabetSize, occ, fmindex.Options{SA: sa})
	if err != nil {
		return nil, fmt.Errorf("baseline: fm-index: %w", err)
	}
	return &Mapper{fm: fm}, nil
}

// FM exposes the underlying index for cross-checks in tests.
func (m *Mapper) FM() *fmindex.Index { return m.fm }

// Stats aggregates one batch run.
type Stats struct {
	Reads       int
	MappedReads int
	Occurrences int
	Threads     int
	Elapsed     time.Duration
}

// MapReads maps every read and its reverse complement on the given number
// of worker threads (1, 8 and 16 in the paper's tables; <= 0 uses all CPUs).
// When locate is true, occurrence positions are resolved through the suffix
// array as Bowtie2's exact mode reports alignments.
func (m *Mapper) MapReads(reads []dna.Seq, threads int, locate bool) ([]Result, Stats, error) {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	results := make([]Result, len(reads))
	start := time.Now()

	mapRange := func(lo, hi int) error {
		fw := make([]uint8, 0, 256)
		rc := make([]uint8, 0, 256)
		for i := lo; i < hi; i++ {
			read := reads[i]
			fw = fw[:0]
			rc = rc[:0]
			for _, b := range read {
				fw = append(fw, uint8(b))
			}
			for j := len(read) - 1; j >= 0; j-- {
				rc = append(rc, uint8(read[j].Complement()))
			}
			res := Result{Forward: m.fm.Count(fw), Reverse: m.fm.Count(rc)}
			if locate {
				var err error
				if res.ForwardPositions, err = m.fm.Locate(res.Forward); err != nil {
					return err
				}
				if res.ReversePositions, err = m.fm.Locate(res.Reverse); err != nil {
					return err
				}
			}
			results[i] = res
		}
		return nil
	}

	var firstErr error
	if threads == 1 {
		if err := mapRange(0, len(reads)); err != nil {
			return nil, Stats{}, err
		}
	} else {
		var wg sync.WaitGroup
		var mu sync.Mutex
		chunk := (len(reads) + threads - 1) / threads
		for w := 0; w < threads; w++ {
			lo := w * chunk
			hi := min(lo+chunk, len(reads))
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := mapRange(lo, hi); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	if firstErr != nil {
		return nil, Stats{}, firstErr
	}

	stats := Stats{Reads: len(reads), Threads: threads, Elapsed: time.Since(start)}
	for _, r := range results {
		if r.mapped() {
			stats.MappedReads++
		}
		stats.Occurrences += r.occurrences()
	}
	return results, stats, nil
}
