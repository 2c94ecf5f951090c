package fmindex

import (
	"fmt"
	"math/bits"

	"bwaver/internal/rrr"
	"bwaver/internal/wavelet"
)

// OccProvider answers Occ queries over the compact BWT data (the transform
// with the sentinel slot removed): Occ(sym, i) is the number of occurrences
// of sym in Data[0, i). The Index layer translates full-transform positions
// to compact positions around the sentinel.
//
// Two providers span the trade-off space the paper discusses: the succinct
// wavelet/RRR structure (BWaveR's) and a checkpointed table with popcount
// recounting (the re-sampling approach of CPU tools like Bowtie2, used by
// internal/baseline). The package's tests add a flat per-position table
// (fast, enormous) as their reference.
type OccProvider interface {
	Occ(sym uint8, i int) int
	// Symbol returns Data[i], which LF walks and text extraction read.
	Symbol(i int) uint8
	Len() int
	Sigma() int
	SizeBytes() int
	Name() string
}

// WaveletOcc adapts a wavelet tree (the paper's structure) to OccProvider.
type WaveletOcc struct {
	Tree *wavelet.Tree
}

// NewWaveletOcc builds the paper's succinct Occ structure over data with the
// given RRR parameters.
func NewWaveletOcc(data []uint8, sigma int, params rrr.Params) (*WaveletOcc, error) {
	t, err := wavelet.New(data, sigma, params)
	if err != nil {
		return nil, err
	}
	return &WaveletOcc{Tree: t}, nil
}

// NewWaveletOccBackend is NewWaveletOcc, for callers that name the node
// encoding through wavelet.RRRBackend.
func NewWaveletOccBackend(data []uint8, sigma int, params rrr.Params) (*WaveletOcc, error) {
	return NewWaveletOcc(data, sigma, params)
}

func (w *WaveletOcc) Occ(sym uint8, i int) int { return w.Tree.Rank(sym, i) }
func (w *WaveletOcc) Symbol(i int) uint8       { return w.Tree.Access(i) }
func (w *WaveletOcc) Len() int                 { return w.Tree.Len() }
func (w *WaveletOcc) Sigma() int               { return w.Tree.Sigma() }
func (w *WaveletOcc) SizeBytes() int           { return w.Tree.SizeBytes() + w.Tree.SharedSizeBytes() }
func (w *WaveletOcc) Name() string             { return "wavelet/rrr" }

// CheckpointOcc is the classic re-sampled FM-index layout used by CPU
// mappers (BWA/Bowtie2 family): the BWT kept as 2-bit packed symbols with
// absolute counts checkpointed every checkpointInterval symbols, and queries
// resolved by one checkpoint load plus popcount scans of at most
// checkpointInterval/32 words. Restricted to sigma = 4 (DNA), as those
// tools are.
type CheckpointOcc struct {
	n      int
	words  []uint64   // 2-bit packed symbols, 32 per word
	checks [][4]int32 // absolute counts at every interval boundary
}

// checkpointInterval is the sampling distance in symbols; 128 symbols = 4
// words per scan, mirroring the cache-line-sized blocks of Bowtie2.
const checkpointInterval = 128

// NewCheckpointOcc builds the checkpointed structure over DNA data.
func NewCheckpointOcc(data []uint8) (*CheckpointOcc, error) {
	c := &CheckpointOcc{
		n:      len(data),
		words:  make([]uint64, (len(data)+31)/32),
		checks: make([][4]int32, len(data)/checkpointInterval+1),
	}
	var counts [4]int32
	for i, s := range data {
		if s >= 4 {
			return nil, fmt.Errorf("fmindex: checkpoint occ requires DNA symbols, got %d", s)
		}
		if i%checkpointInterval == 0 {
			c.checks[i/checkpointInterval] = counts
		}
		c.words[i/32] |= uint64(s) << uint(i%32*2)
		counts[s]++
	}
	return c, nil
}

// occWord counts occurrences of sym among the first k symbols of word w.
func occWord(w uint64, sym uint8, k int) int {
	// Build a mask with bit 2j set iff symbol j == sym, then popcount.
	const low = 0x5555555555555555 // 01 repeated
	hi := w >> 1 & low
	lo := w & low
	var m uint64
	switch sym {
	case 0:
		m = ^hi & ^lo & low
	case 1:
		m = ^hi & lo & low
	case 2:
		m = hi & ^lo & low
	default:
		m = hi & lo & low
	}
	if k < 32 {
		m &= 1<<uint(2*k) - 1
	}
	return bits.OnesCount64(m)
}

func (c *CheckpointOcc) Occ(sym uint8, i int) int {
	cp := i / checkpointInterval
	count := int(c.checks[cp][sym])
	start := cp * checkpointInterval
	for w := start / 32; w*32 < i; w++ {
		k := i - w*32
		if k > 32 {
			k = 32
		}
		count += occWord(c.words[w], sym, k)
	}
	return count
}

func (c *CheckpointOcc) Len() int   { return c.n }
func (c *CheckpointOcc) Sigma() int { return 4 }
func (c *CheckpointOcc) SizeBytes() int {
	return len(c.words)*8 + len(c.checks)*16
}
func (c *CheckpointOcc) Name() string { return "checkpoint" }

// Symbol returns the i-th BWT symbol.
func (c *CheckpointOcc) Symbol(i int) uint8 {
	return uint8(c.words[i/32] >> uint(i%32*2) & 3)
}
