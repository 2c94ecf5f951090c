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
// structure is also a lossless archive of the genome. With the full suffix
// array every row names its own text position (T[SA[r]-1] = BWT[r]), so the
// rows are scattered in parallel; otherwise the FM-index is LF-walked from
// the sentinel row, one dependent Occ query per base.
func (ix *Index) ExtractReference() (dna.Seq, error) {
	fm := ix.fm
	if sa := fm.SA(); sa != nil {
		return extractBySA(fm, sa)
	}
	n := fm.Len()
	out := make(dna.Seq, n)
	row := 0 // row 0 is the sentinel suffix; its BWT symbol is the last base
	for i := n - 1; i >= 0; i-- {
		if row == fm.Primary() {
			return nil, fmt.Errorf("core: extraction hit the sentinel row at base %d; index is corrupt", i)
		}
		sym := fm.BWTSymbol(row)
		out[i] = dna.Base(sym)
		// LF: the row of sym·suffix is the one-row backward step by sym.
		row = fm.Step(fmindex.Range{Start: row, End: row}, sym).Start
	}
	if row != fm.Primary() {
		return nil, fmt.Errorf("core: extraction ended at row %d, want sentinel row %d; index is corrupt", row, fm.Primary())
	}
	return out, nil
}

// unwritten marks a base no row has claimed yet; no symbol code reaches it.
const unwritten = dna.Base(0xFF)

// extractBySA writes each row's BWT symbol at the text position before the
// row's suffix. Rows split evenly across GOMAXPROCS; a suffix array is a
// permutation, so the writes are disjoint. One that is not leaves a base
// unwritten, which the closing scan reports like the walk's sentinel errors.
func extractBySA(fm *fmindex.Index, sa []int32) (dna.Seq, error) {
	n := fm.Len()
	out := make(dna.Seq, n)
	for i := range out {
		out[i] = unwritten
	}
	workers := max(1, min(runtime.GOMAXPROCS(0), n>>16))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for row := w * (n + 1) / workers; row < (w+1)*(n+1)/workers; row++ {
				if row == fm.Primary() {
					continue // the whole text: nothing precedes it
				}
				pos := int(sa[row])
				if pos < 1 || pos > n {
					errs[w] = fmt.Errorf("core: row %d holds suffix %d outside [1,%d]; index is corrupt", row, pos, n)
					return
				}
				out[pos-1] = dna.Base(fm.BWTSymbol(row))
			}
		}(w)
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
