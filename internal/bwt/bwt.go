// Package bwt computes the Burrows-Wheeler transform of a text from its
// suffix array, and the inverse transform.
//
// Following the paper's optimisation for power-of-two alphabets (§III-B),
// the sentinel '$' is not materialised in the transformed sequence: the BWT
// is stored compactly over the original alphabet, and the position the
// sentinel would occupy (the "primary index") is kept separately. The
// FM-index layer adjusts its rank queries around that position, exactly as
// the paper's backward-search function does.
package bwt

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
)

// BWT is the compact Burrows-Wheeler transform of a text.
type BWT struct {
	// Data holds the n non-sentinel symbols of the transform in order,
	// with the sentinel slot removed. It must not change once a statistic
	// (SymbolCounts, RunCount, Entropy) has been asked for.
	Data []uint8
	// Primary is the position in the full (n+1)-long transform where the
	// sentinel sits; Data[j] corresponds to full position j when
	// j < Primary and j+1 otherwise.
	Primary int

	// The statistics all come from one pass over Data, made by the first of
	// them to be asked for.
	tally  sync.Once
	counts [256]int // occurrences of each symbol
	runs   int      // maximal runs of equal symbols
}

// Transform computes the BWT of text given its suffix array sa (as produced
// by internal/suffixarray: length len(text)+1, sentinel first).
func Transform[E ~uint8](text []E, sa []int32) (*BWT, error) {
	n := len(text)
	if len(sa) != n+1 {
		return nil, fmt.Errorf("bwt: suffix array length %d, want %d", len(sa), n+1)
	}
	// One slot more than the symbols, so that an array with no zero entry is
	// reported below rather than written past the end.
	data, at, primary := make([]uint8, n+1), 0, -1
	for i, p := range sa {
		if p == 0 {
			if primary != -1 {
				return nil, errors.New("bwt: suffix array has multiple zero entries")
			}
			primary = i
			continue
		}
		if p < 0 || int(p) > n {
			return nil, fmt.Errorf("bwt: suffix array entry %d out of range", p)
		}
		data[at] = uint8(text[p-1])
		at++
	}
	if primary == -1 {
		return nil, errors.New("bwt: suffix array lacks the sentinel suffix")
	}
	return &BWT{Data: data[:n], Primary: primary}, nil
}

// Stream is Transform without the transform: it walks sa once and writes
// the symbols Transform would store into buf, handing buf to emit each time it
// fills and once more for the rest, so that no more than len(buf) symbols of
// the transform exist at a time. It returns the primary index and the number
// of maximal runs of equal symbols. An emit error stops the walk and is
// returned as it is.
func Stream[E ~uint8](text []E, sa []int32, buf []uint8, emit func([]uint8) error) (primary, runs int, err error) {
	n := len(text)
	if len(sa) != n+1 {
		return 0, 0, fmt.Errorf("bwt: suffix array length %d, want %d", len(sa), n+1)
	}
	if len(buf) == 0 {
		return 0, 0, errors.New("bwt: empty stream buffer")
	}
	at, last, primary := 0, -1, -1
	for i, p := range sa {
		if p == 0 {
			if primary != -1 {
				return 0, 0, errors.New("bwt: suffix array has multiple zero entries")
			}
			primary = i
			continue
		}
		if p < 0 || int(p) > n {
			return 0, 0, fmt.Errorf("bwt: suffix array entry %d out of range", p)
		}
		c := uint8(text[p-1])
		if int(c) != last {
			runs++
			last = int(c)
		}
		buf[at] = c
		if at++; at == len(buf) {
			if err := emit(buf); err != nil {
				return 0, 0, err
			}
			at = 0
		}
	}
	if primary == -1 {
		return 0, 0, errors.New("bwt: suffix array lacks the sentinel suffix")
	}
	if at > 0 {
		if err := emit(buf[:at]); err != nil {
			return 0, 0, err
		}
	}
	return primary, runs, nil
}

// Len returns the number of non-sentinel symbols (the original text length).
func (b *BWT) Len() int { return len(b.Data) }

// CompactPos maps a prefix length over the full transform (including the
// sentinel slot) to the corresponding prefix length over Data. Rank queries
// on the full transform for any real symbol reduce to rank on Data at this
// adjusted position — the paper's "$-position check" in backward search.
func (b *BWT) CompactPos(i int) int {
	if i <= b.Primary {
		return i
	}
	return i - 1
}

// stats makes the one pass over Data behind every statistic.
func (b *BWT) stats() {
	b.tally.Do(func() {
		var counts [256]int // locals, so that the loop keeps them out of b
		runs, last := 0, -1
		for _, c := range b.Data {
			counts[c]++
			if int(c) != last {
				runs++
			}
			last = int(c)
		}
		b.counts, b.runs = counts, runs
	})
}

// SymbolCounts returns the number of occurrences of each symbol in [0,sigma),
// and an error if Data holds a symbol outside that alphabet.
func (b *BWT) SymbolCounts(sigma int) ([]int, error) {
	b.stats()
	counts := make([]int, sigma)
	copy(counts, b.counts[:])
	for c := sigma; c < len(b.counts); c++ {
		if b.counts[c] > 0 {
			i := bytes.IndexByte(b.Data, uint8(c))
			return nil, fmt.Errorf("bwt: symbol %d at position %d outside alphabet [0,%d)", c, i, sigma)
		}
	}
	return counts, nil
}

// Inverse reconstructs the original text by LF-walking from the sentinel
// row. It is the correctness oracle for Transform and the basis of the
// round-trip tests.
func (b *BWT) Inverse(sigma int) ([]uint8, error) {
	n := len(b.Data)
	if b.Primary < 0 || b.Primary > n {
		return nil, fmt.Errorf("bwt: primary index %d out of range [0,%d]", b.Primary, n)
	}
	counts, err := b.SymbolCounts(sigma)
	if err != nil {
		return nil, err
	}
	// cFull[c] = number of rows whose first column is < c, counting the
	// sentinel row (always row 0).
	cFull := make([]int, sigma+1)
	cFull[0] = 1
	for c := 0; c < sigma; c++ {
		cFull[c+1] = cFull[c] + counts[c]
	}
	// Precompute LF for every full row in O(n): occ[c] counts symbols seen
	// so far scanning Data left to right.
	lf := make([]int32, n+1)
	occ := make([]int, sigma)
	for full := 0; full <= n; full++ {
		if full == b.Primary {
			lf[full] = -1 // sentinel row has no predecessor symbol
			continue
		}
		c := b.Data[b.CompactPos(full)]
		lf[full] = int32(cFull[c] + occ[c])
		occ[c]++
	}
	text := make([]uint8, n)
	row := 0 // row 0's last column is the text's final symbol
	for i := n - 1; i >= 0; i-- {
		if row == b.Primary {
			return nil, errors.New("bwt: hit sentinel row early; transform is corrupt")
		}
		text[i] = b.Data[b.CompactPos(row)]
		row = int(lf[row])
	}
	if row != b.Primary {
		return nil, errors.New("bwt: LF walk did not end at sentinel row; transform is corrupt")
	}
	return text, nil
}

// RunCount returns the number of maximal runs of equal symbols in Data, a
// standard measure of BWT compressibility.
func (b *BWT) RunCount() int {
	b.stats()
	return b.runs
}

// Entropy returns the zero-order empirical entropy H0 of Data in bits per
// symbol. The paper's RRR offset array grows with the entropy of each
// wavelet node's bit-vector, so H0 predicts the structure's compression.
func (b *BWT) Entropy(sigma int) float64 {
	counts, err := b.SymbolCounts(sigma)
	if err != nil {
		return 0
	}
	return H0(counts)
}

// H0 is the zero-order empirical entropy, in bits per symbol, of a string
// holding counts[s] copies of each symbol s. A transform permutes its text,
// so the text's counts give the transform's entropy.
func H0(counts []int) float64 {
	n := 0
	for _, c := range counts {
		n += c
	}
	h := 0.0
	for _, c := range counts {
		if c > 0 {
			p := float64(c) / float64(n)
			h -= p * math.Log2(p)
		}
	}
	return h
}
