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
	// (SymbolCounts, Entropy) has been asked for.
	Data []uint8
	// Primary is the position in the full (n+1)-long transform where the
	// sentinel sits; Data[j] corresponds to full position j when
	// j < Primary and j+1 otherwise.
	Primary int

	// The statistics all come from one pass over Data, made by the first of
	// them to be asked for.
	tally  sync.Once
	counts [256]int // occurrences of each symbol
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

// stats makes the one pass over Data behind every statistic.
func (b *BWT) stats() {
	b.tally.Do(func() {
		var counts [256]int // a local, so that the loop keeps it out of b
		for _, c := range b.Data {
			counts[c]++
		}
		b.counts = counts
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
