package fmindex

import (
	"fmt"

	"bwaver/internal/rrr"
	"bwaver/internal/wavelet"
)

// RLFMOcc is a run-length FM-index Occ provider (Mäkinen & Navarro): the
// BWT is stored as its run structure — a head bit-vector marking run starts
// (RRR-compressed, since it is sparse on run-rich BWTs), a wavelet tree
// over the per-run symbols, and per-symbol run-length prefix sums. Space
// scales with the number of runs r instead of the text length n, the other
// classic way to exploit exactly the BWT run structure the paper's RRR
// encoding exploits — which makes it the natural extra ablation point next
// to wavelet/RRR, checkpointed, and flat.
type RLFMOcc struct {
	n     int
	sigma int
	// heads has a 1 at every run start; rank gives the run containing a
	// position, select gives a run's start.
	heads *rrr.Sequence
	// runs is the wavelet tree over the r run symbols.
	runs *wavelet.Tree
	// prefixLens[c][k] is the total length of the first k runs of symbol
	// c, in BWT order; len(prefixLens[c]) == (#runs of c)+1.
	prefixLens [][]int32
}

// NewRLFMOcc builds the run-length structure over BWT data.
func NewRLFMOcc(data []uint8, sigma int, params rrr.Params) (*RLFMOcc, error) {
	if sigma < 2 || sigma > 256 {
		return nil, fmt.Errorf("fmindex: rlfm alphabet %d outside [2,256]", sigma)
	}
	for i, s := range data {
		if int(s) >= sigma {
			return nil, fmt.Errorf("fmindex: rlfm symbol %d at %d outside alphabet [0,%d)", s, i, sigma)
		}
	}
	// One pass to find the runs.
	var runSymbols []uint8
	var runLens []int32
	for i := 0; i < len(data); {
		j := i
		for j < len(data) && data[j] == data[i] {
			j++
		}
		runSymbols = append(runSymbols, data[i])
		runLens = append(runLens, int32(j-i))
		i = j
	}
	heads, err := rrr.New(func(i int) bool {
		// A position is a run head iff it is 0 or differs from its
		// predecessor.
		return i == 0 || data[i] != data[i-1]
	}, len(data), params)
	if err != nil {
		return nil, err
	}
	runs, err := wavelet.New(runSymbols, sigma, wavelet.PlainBackend())
	if err != nil {
		return nil, err
	}
	prefixLens := make([][]int32, sigma)
	for c := range prefixLens {
		prefixLens[c] = []int32{0}
	}
	for k, sym := range runSymbols {
		p := prefixLens[sym]
		prefixLens[sym] = append(p, p[len(p)-1]+runLens[k])
	}
	return &RLFMOcc{
		n: len(data), sigma: sigma,
		heads: heads, runs: runs, prefixLens: prefixLens,
	}, nil
}

// Occ returns the occurrences of sym in data[0, i).
func (r *RLFMOcc) Occ(sym uint8, i int) int {
	if i <= 0 || int(sym) >= r.sigma {
		return 0
	}
	// Run containing position i-1 (0-based run index).
	run := r.heads.Rank1(i) - 1
	// Complete runs of sym strictly before it.
	full := r.runs.Rank(sym, run)
	count := int(r.prefixLens[sym][full])
	if r.runs.Access(run) == sym {
		runStart := r.heads.Select1(run + 1)
		count += i - runStart
	}
	return count
}

// Symbol returns the i-th BWT symbol.
func (r *RLFMOcc) Symbol(i int) uint8 {
	return r.runs.Access(r.heads.Rank1(i+1) - 1)
}

// Len returns the encoded text length.
func (r *RLFMOcc) Len() int { return r.n }

// Sigma returns the alphabet size.
func (r *RLFMOcc) Sigma() int { return r.sigma }

// Runs returns the number of BWT runs the structure stores.
func (r *RLFMOcc) Runs() int { return r.runs.Len() }

// SizeBytes returns the structure's footprint, counting the shared RRR
// table once.
func (r *RLFMOcc) SizeBytes() int {
	size := r.heads.SizeBytes() + r.heads.SharedSizeBytes() + r.runs.SizeBytes()
	for _, p := range r.prefixLens {
		size += len(p) * 4
	}
	return size
}

// Name identifies the provider.
func (r *RLFMOcc) Name() string { return "rlfm" }
