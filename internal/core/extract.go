package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"bwaver/internal/dna"
	"bwaver/internal/fmindex"
)

// ExtractReference reconstructs the original reference sequence from the
// index alone — the BWT is a reversible permutation, so the succinct
// structure is also a lossless archive of the genome. Every row whose text
// position the index stores (fmindex.Index.KnownPosition) starts a segment
// that LF-walks down to the next stored position: one step per row with the
// full suffix array, up to a sampling interval per sampled row, the whole
// text from row 0 on a count-only index. Rows split evenly across
// GOMAXPROCS; segments cover disjoint stretches of the text, so their writes
// are disjoint too.
func (ix *Index) ExtractReference() (dna.Seq, error) {
	fm := ix.fm
	n := fm.Len()
	out := make(dna.Seq, n)
	for i := range out {
		out[i] = unwritten
	}
	workers := max(1, min(runtime.GOMAXPROCS(0), n>>16))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for row := w * (n + 1) / workers; row < (w+1)*(n+1)/workers; row++ {
				if pos, ok := fm.KnownPosition(row); ok {
					if errs[w] = extractSegment(fm, out, row, pos); errs[w] != nil {
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if i := slices.Index(out, unwritten); i >= 0 {
		return nil, fmt.Errorf("core: no row holds suffix %d; index is corrupt", i+1)
	}
	return out, nil
}

// unwritten marks a base no segment has written yet; no symbol code reaches it.
const unwritten = dna.Base(0xFF)

// extractSegment writes the bases before text position pos, whose row is
// row, down to the next position the index stores, and checks that the walk
// lands on the row holding that position — the sentinel row for position 0.
func extractSegment(fm *fmindex.Index, out dna.Seq, row, pos int) error {
	if pos < 0 || pos > len(out) || pos == 0 && row != fm.Primary() {
		return fmt.Errorf("core: row %d holds suffix %d, outside [1,%d] and not the sentinel row's; index is corrupt", row, pos, len(out))
	}
	if pos == 0 {
		return nil // the sentinel row: nothing precedes the whole text
	}
	stop := fm.KnownBelow(pos)
	for ; pos > stop; pos-- {
		sym, next, err := fm.LF(row)
		if err != nil {
			return fmt.Errorf("core: extraction hit the sentinel row at base %d; index is corrupt", pos-1)
		}
		out[pos-1], row = dna.Base(sym), next
	}
	if got, ok := fm.KnownPosition(row); !ok || got != stop {
		return fmt.Errorf("core: LF walk to suffix %d reached row %d, which does not hold it; index is corrupt", stop, row)
	}
	return nil
}
