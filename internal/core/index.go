// Package core is the BWaveR library: it assembles the substrates
// (suffix array, BWT, wavelet tree over RRR bit-vectors, FM-index) into the
// three-step pipeline of the paper (§III-D) — BWT and SA computation, BWT
// encoding, and sequence mapping — and exposes the index and mapping API
// that the CLI, web server, FPGA simulator, and benches all drive.
package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bwaver/internal/bwt"
	"bwaver/internal/dna"
	"bwaver/internal/fmindex"
	"bwaver/internal/obs"
	"bwaver/internal/rrr"
	"bwaver/internal/suffixarray"
	"bwaver/internal/wavelet"
)

// LocateMode selects how occurrence positions are recovered.
type LocateMode int

const (
	// LocateFullSA keeps the complete suffix array on the host, the
	// paper's configuration: O(1) per occurrence, 4 bytes per base.
	LocateFullSA LocateMode = iota
	// LocateSampled keeps a sampled suffix array and walks LF to the
	// nearest sample, trading time for space (DESIGN.md extension).
	LocateSampled
	// LocateNone builds a count-only index.
	LocateNone
)

// String implements fmt.Stringer.
func (m LocateMode) String() string {
	switch m {
	case LocateFullSA:
		return "full-sa"
	case LocateSampled:
		return "sampled-sa"
	default:
		return "none"
	}
}

// IndexConfig controls index construction.
type IndexConfig struct {
	// RRR sets the succinct structure's block size and superblock factor;
	// the zero value means the paper's hardware parameters (b=15, sf=50).
	RRR rrr.Params
	// PlainBitvectors switches the wavelet nodes to uncompressed
	// bit-vectors — the space/time ablation, not the paper's design.
	PlainBitvectors bool
	// Locate selects the locate structure; the zero value is LocateFullSA.
	Locate LocateMode
	// SampleRate is the sampled-SA rate when Locate == LocateSampled;
	// zero means 32.
	SampleRate int
	// FtabK, when > 0, builds an order-k prefix-lookup table that replaces
	// the first k backward-search steps with one lookup (8*4^k bytes; see
	// fmindex.Ftab). The zero value builds no table, preserving the paper's
	// original structure; DefaultFtabK is what the CLI and server pass.
	FtabK int
}

// DefaultFtabK is the prefix-table order the CLI and server default to:
// 4^10 intervals, ~8 MiB — the Bowtie-style sweet spot between lookup
// coverage and BRAM footprint.
const DefaultFtabK = 10

func (c IndexConfig) withDefaults() IndexConfig {
	if c.RRR == (rrr.Params{}) {
		c.RRR = rrr.DefaultParams
	}
	if c.SampleRate == 0 {
		c.SampleRate = 32
	}
	return c
}

// BuildStats reports what index construction did, feeding Figs. 5 and 6.
type BuildStats struct {
	RefLength int
	// Stage timings of the paper's three-step flow; EncodeTime is what
	// Fig. 6 plots.
	SATime     time.Duration
	BWTTime    time.Duration
	EncodeTime time.Duration
	// StructureBytes is the succinct structure's size (Fig. 5);
	// SharedBytes the global rank table shared across wavelet nodes.
	StructureBytes int
	SharedBytes    int
	// FtabTime and FtabBytes cover the optional prefix-table phase
	// (zero when IndexConfig.FtabK is 0).
	FtabTime  time.Duration
	FtabBytes int
	// UncompressedBytes is the 1-byte-per-symbol BWT baseline the paper
	// compares against.
	UncompressedBytes int
	BWTRuns           int
	BWTEntropy        float64
}

// CompressionRatio returns structure size over the uncompressed BWT
// representation (1 byte per base, as the paper counts it).
func (s BuildStats) CompressionRatio() float64 {
	if s.UncompressedBytes == 0 {
		return 0
	}
	return float64(s.StructureBytes+s.SharedBytes) / float64(s.UncompressedBytes)
}

// Index is a built BWaveR index over one reference sequence.
type Index struct {
	fm      *fmindex.Index
	config  IndexConfig
	stats   BuildStats
	contigs *ContigSet // nil for a single anonymous reference

	// mem is the lazily-built seed-and-extend state (bidirectional index plus
	// extracted reference text), nil until EnsureMem has built it. memMu
	// serialises that build, so concurrent mem jobs over one cached index
	// share it; readers load mem without the lock.
	memMu sync.Mutex
	mem   atomic.Pointer[memState]

	// chunks holds the scratch of every exact search — the exact and
	// k-mismatch engines' per-worker chunks, and MapRead's — between calls.
	chunks chunkList
}

// BuildIndex runs the first two pipeline steps over the reference: suffix
// array and BWT computation, then succinct encoding. It is BuildIndexCtx
// without cancellation.
func BuildIndex(ref dna.Seq, cfg IndexConfig) (*Index, error) {
	return BuildIndexCtx(context.Background(), ref, cfg)
}

// BuildIndexCtx is BuildIndex with cancellation: the context is checked
// between the build phases (suffix array, BWT, succinct encoding, locate
// structure) and, within the suffix-array phase — most of a build — between
// the passes of the sort, so a canceled job stops there instead of running
// the whole construction to completion while holding resources.
// When the context carries an obs trace, each phase emits a span.
func BuildIndexCtx(ctx context.Context, ref dna.Seq, cfg IndexConfig) (*Index, error) {
	cfg = cfg.withDefaults()
	if err := cfg.RRR.Validate(); err != nil {
		return nil, err
	}
	if len(ref) == 0 {
		return nil, fmt.Errorf("core: empty reference")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var stats BuildStats
	stats.RefLength = len(ref)
	stats.UncompressedBytes = len(ref)

	start := time.Now()
	_, saSpan := obs.StartSpan(ctx, "build.sa")
	sa, err := suffixarray.BuildCtx(ctx, ref, dna.AlphabetSize)
	saSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: suffix array: %w", err)
	}
	stats.SATime = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The transform streams from the suffix array straight into the wavelet
	// nodes' bits: it never exists whole.
	var backend wavelet.Backend
	if cfg.PlainBitvectors {
		backend = wavelet.PlainBackend()
	} else {
		backend = wavelet.RRRBackend(cfg.RRR)
	}
	start = time.Now()
	_, bwtSpan := obs.StartSpan(ctx, "build.bwt")
	streamed, err := fmindex.StreamBWT(ref, sa, dna.AlphabetSize, backend)
	bwtSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: bwt: %w", err)
	}
	stats.BWTTime = time.Since(start)
	stats.BWTRuns = streamed.Runs
	stats.BWTEntropy = bwt.H0(streamed.Counts)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	start = time.Now()
	_, encSpan := obs.StartSpan(ctx, "build.encode")
	occ, err := streamed.Encode()
	encSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: encoding: %w", err)
	}
	stats.EncodeTime = time.Since(start)
	stats.StructureBytes = occ.Tree.SizeBytes()
	stats.SharedBytes = occ.Tree.SharedSizeBytes()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	opts := fmindex.Options{}
	switch cfg.Locate {
	case LocateFullSA:
		opts.SA = sa
	case LocateSampled:
		sampled, err := fmindex.NewSampledSA(sa, cfg.SampleRate)
		if err != nil {
			return nil, fmt.Errorf("core: sampled SA: %w", err)
		}
		opts.Sampled = sampled
	case LocateNone:
	default:
		return nil, fmt.Errorf("core: unknown locate mode %d", cfg.Locate)
	}

	fm, err := fmindex.NewFromParts(occ, dna.AlphabetSize, streamed.Primary, streamed.Counts, opts)
	if err != nil {
		return nil, fmt.Errorf("core: fm-index: %w", err)
	}
	if cfg.FtabK > 0 {
		start = time.Now()
		_, ftabSpan := obs.StartSpan(ctx, "build.ftab")
		ftab, err := fm.BuildFtab(cfg.FtabK)
		ftabSpan.End()
		if err != nil {
			return nil, fmt.Errorf("core: ftab: %w", err)
		}
		fm.SetFtab(ftab)
		stats.FtabTime = time.Since(start)
		stats.FtabBytes = ftab.SizeBytes()
	}
	return &Index{fm: fm, config: cfg, stats: stats}, nil
}

// EnsureFtab attaches an order-k prefix table, building one if the index has
// none or one of a different order — the rebuild-on-demand path for indexes
// deserialized from the pre-ftab file format. k <= 0 drops the table.
func (ix *Index) EnsureFtab(k int) error {
	if k <= 0 {
		ix.fm.SetFtab(nil)
		ix.config.FtabK = 0
		ix.stats.FtabBytes = 0
		return nil
	}
	if f := ix.fm.Ftab(); f != nil && f.K() == k {
		ix.config.FtabK = k
		return nil
	}
	start := time.Now()
	f, err := ix.fm.BuildFtab(k)
	if err != nil {
		return err
	}
	ix.fm.SetFtab(f)
	ix.config.FtabK = k
	ix.stats.FtabTime = time.Since(start)
	ix.stats.FtabBytes = f.SizeBytes()
	return nil
}

// DropFtab detaches the prefix table (the ftab-off ablation arm).
func (ix *Index) DropFtab() { _ = ix.EnsureFtab(0) }

// FtabK returns the attached prefix table's order, 0 if none.
func (ix *Index) FtabK() int {
	if f := ix.fm.Ftab(); f != nil {
		return f.K()
	}
	return 0
}

// FtabBytes returns the prefix table's footprint, 0 if none — charged
// against the simulator's BRAM gate alongside StructureBytes.
func (ix *Index) FtabBytes() int {
	if f := ix.fm.Ftab(); f != nil {
		return f.SizeBytes()
	}
	return 0
}

// FtabStats snapshots the prefix table's lookup counters (zero if none).
func (ix *Index) FtabStats() fmindex.FtabStats {
	if f := ix.fm.Ftab(); f != nil {
		return f.Stats()
	}
	return fmindex.FtabStats{}
}

// FM exposes the underlying FM-index for step-level consumers such as the
// FPGA simulator.
func (ix *Index) FM() *fmindex.Index { return ix.fm }

// Config returns the configuration the index was built with.
func (ix *Index) Config() IndexConfig { return ix.config }

// Stats returns the build statistics.
func (ix *Index) Stats() BuildStats { return ix.stats }

// RefLength returns the reference length in bases.
func (ix *Index) RefLength() int { return ix.fm.Len() }

// SizeBytes returns the total index footprint (structure, shared table, and
// locate structure).
func (ix *Index) SizeBytes() int { return ix.fm.SizeBytes() }

// StructureBytes returns just the succinct BWT structure plus shared table,
// the quantity Fig. 5 plots, as the host holds it.
func (ix *Index) StructureBytes() int { return ix.stats.StructureBytes + ix.stats.SharedBytes }

// DeviceStructureBytes is StructureBytes for the structure as a device holds
// it: the RRR nodes in the paper's array layout, without the host records'
// padding. The FPGA model's BRAM gate and index transfer charge this, so a
// host layout change cannot move the model.
func (ix *Index) DeviceStructureBytes() int { return ix.StructureBytes() - recordPadBytes(ix.fm) }

// recordPadBytes is what the host's cache-line superblock records cost over
// the paper's arrays (up to 7 bits per superblock), summed over fm's wavelet
// tree.
func recordPadBytes(fm *fmindex.Index) int {
	if occ, ok := fm.OccProvider().(*fmindex.WaveletOcc); ok {
		return occ.Tree.SizeBytes() - occ.Tree.PackedSizeBytes()
	}
	return 0
}

// MapResult is the outcome of mapping one read and its reverse complement,
// mirroring what the paper's kernel returns to the host per query.
type MapResult struct {
	// Forward and Reverse are the suffix-array row ranges of the read and
	// of its reverse complement.
	Forward, Reverse fmindex.Range
	// ForwardPositions and ReversePositions are the located reference
	// occurrences (filled only when MapOptions.Locate is set).
	ForwardPositions, ReversePositions []int32
	// Steps is the larger of the two backward-search step counts; the two
	// searches run in parallel in hardware (§III-C), so this drives the
	// kernel cycle model.
	Steps int
}

// Mapped reports whether either orientation occurs in the reference.
func (m MapResult) Mapped() bool { return !m.Forward.Empty() || !m.Reverse.Empty() }

// Occurrences returns the total number of occurrences across both strands.
func (m MapResult) Occurrences() int { return m.Forward.Count() + m.Reverse.Count() }

// chunkBuffer is the scratch of every exact search in core: a chunk's
// patterns back to back in syms, read i's forward and reverse complement as
// pats[2i] and pats[2i+1], their results and their search group.
type chunkBuffer struct {
	syms   []uint8
	pats   [][]uint8
	ranges []fmindex.Range
	steps  []int
	group  fmindex.Group
}

// chunkList keeps chunk buffers between batches, as a sync.Pool would, but
// across collections too: a chunk buffer holds some 30 KB for 100 bp reads,
// and a pool, emptied by every other collection, would have a warm batch
// allocate it again. It holds as many buffers as were ever in use at once,
// each grown to the longest chunk it searched.
type chunkList struct {
	mu   sync.Mutex
	free []*chunkBuffer
}

func (l *chunkList) get() *chunkBuffer {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(chunkBuffer)
	}
	buf := l.free[n-1]
	l.free = l.free[:n-1]
	return buf
}

func (l *chunkList) put(buf *chunkBuffer) {
	l.mu.Lock()
	l.free = append(l.free, buf)
	l.mu.Unlock()
}

// encode writes every read and its reverse complement as symbol codes into
// buf.pats, sized for their results.
func (buf *chunkBuffer) encode(reads []dna.Seq) {
	total := 0
	for _, read := range reads {
		total += len(read)
	}
	n := 2 * len(reads)
	buf.syms = slices.Grow(buf.syms[:0], 2*total)[:2*total]
	if cap(buf.pats) < n {
		buf.pats, buf.ranges, buf.steps = make([][]uint8, n), make([]fmindex.Range, n), make([]int, n)
	}
	buf.pats, buf.ranges, buf.steps = buf.pats[:n], buf.ranges[:n], buf.steps[:n]
	at := 0
	for i, read := range reads {
		m := len(read)
		fw, rc := buf.syms[at:at+m:at+m], buf.syms[at+m:at+2*m:at+2*m]
		for j, b := range read {
			fw[j] = uint8(b)
			rc[m-1-j] = uint8(b.Complement())
		}
		buf.pats[2*i], buf.pats[2*i+1] = fw, rc
		at += 2 * m
	}
}

// unmapped is the range of a pattern that occurs nowhere.
var unmapped = fmindex.Range{Start: 1, End: 0}

// result is read i's MapResult from the searches of its two patterns. An
// empty read maps nowhere: the backward search of an empty pattern matches
// every row, which says nothing about where the read came from.
func (buf *chunkBuffer) result(i int) MapResult {
	if len(buf.pats[2*i]) == 0 {
		return MapResult{Forward: unmapped, Reverse: unmapped}
	}
	// The two searches run in parallel pipelines in hardware (§III-C), so
	// the slower one bounds the query's latency.
	return MapResult{Forward: buf.ranges[2*i], Reverse: buf.ranges[2*i+1], Steps: max(buf.steps[2*i], buf.steps[2*i+1])}
}

// MapRead maps one read and its reverse complement (count only), through
// the prefix table when the index carries one. It searches the two patterns
// one at a time, not as a group: it is the per-read reference the batch
// engine is held to.
func (ix *Index) MapRead(read dna.Seq) MapResult {
	buf := ix.chunks.get()
	buf.encode([]dna.Seq{read})
	for p, pattern := range buf.pats {
		buf.ranges[p], buf.steps[p] = ix.fm.SearchWithFtabSteps(pattern)
	}
	res := buf.result(0)
	ix.chunks.put(buf)
	return res
}

// MapOptions control batch mapping.
type MapOptions struct {
	// Context, if non-nil, cancels the batch: worker loops stop between
	// reads and the call returns the context's error. A nil Context maps
	// to completion, preserving the historical behaviour.
	Context context.Context
	// Locate fills occurrence positions, the paper's host-side SA lookup.
	Locate bool
	// Workers is the number of parallel mapping goroutines; 0 or 1 keeps
	// the single-threaded behaviour of the paper's software baseline, -1
	// uses all CPUs.
	Workers int
	// Progress, if non-nil, is called with (done, total) roughly every
	// ProgressEvery completed reads and once at the end. With Workers > 1
	// it is called from mapping goroutines and must be safe for concurrent
	// use.
	Progress func(done, total int)
	// ProgressEvery is the reporting granularity; 0 means 1024.
	ProgressEvery int
}

// MapStats aggregates a batch mapping run.
type MapStats struct {
	Reads       int
	MappedReads int
	Occurrences int
	TotalSteps  int
	Elapsed     time.Duration
}

// MapReads maps a batch of reads, the paper's "sequence mapping" step on
// the CPU path (BWaveR-CPU).
func (ix *Index) MapReads(reads []dna.Seq, opts MapOptions) ([]MapResult, MapStats, error) {
	results := make([]MapResult, len(reads))
	stats, err := ix.MapReadsInto(results, reads, opts)
	if err != nil {
		return nil, MapStats{}, err
	}
	return results, stats, nil
}

// exactWork is exact matching as a workload value, count-only: a locating
// batch locates afterwards, in locateBatch. useFtab=false forces the plain
// backward search even on an index that has a prefix table.
type exactWork struct {
	ix      *Index
	useFtab bool
}

func (exactWork) unit() int  { return 1 }
func (exactWork) chunk() int { return 64 }

func (w exactWork) acquire() *chunkBuffer    { return w.ix.chunks.get() }
func (w exactWork) release(buf *chunkBuffer) { w.ix.chunks.put(buf) }

// search encodes a chunk of reads into buf and runs their backward
// searches as one fmindex search group: they advance in lock step, so their
// rank queries' cache misses overlap. Each pattern's range and steps are
// what the one-pattern search returns.
func (w exactWork) search(buf *chunkBuffer, reads []dna.Seq) {
	buf.encode(reads)
	w.ix.fm.SearchGroup(&buf.group, buf.pats, w.useFtab, buf.ranges, buf.steps)
}

// mapUnits searches the chunk as one group of 2·64 searches.
func (w exactWork) mapUnits(buf *chunkBuffer, reads []dna.Seq, dst []MapResult) error {
	w.search(buf, reads)
	for i := range reads {
		dst[i] = buf.result(i)
	}
	return nil
}

// LocateResults fills in the occurrence positions of results that were
// mapped count-only, as a locating batch does.
func (ix *Index) LocateResults(results []MapResult) error {
	return ix.locateBatch(results, MapOptions{})
}

// locateBatch is the paper's host-side SA lookup for a batch mapped
// count-only: it sums the batch's occurrences, allocates their positions
// once, at exactly that size, hands every result its own ranges of the slab,
// and locates into them on run.Workers workers. A pass thus leaves behind
// only the positions it returns.
func (ix *Index) locateBatch(results []MapResult, run MapOptions) error {
	total := 0
	for i := range results {
		total += results[i].Occurrences()
	}
	slab := make([]int32, total)
	for i := range results {
		res := &results[i]
		res.ForwardPositions, slab = reserve(slab, res.Forward.Count())
		res.ReversePositions, slab = reserve(slab, res.Reverse.Count())
	}
	return mapBatch(locateWork{ix: ix}, results, results, MapOptions{Context: run.Context, Workers: run.Workers})
}

// reserve splits the first n positions off slab as an empty slice with room
// for exactly n, nil for none.
func reserve(slab []int32, n int) (head, rest []int32) {
	if n == 0 {
		return nil, slab
	}
	return slab[:0:n], slab[n:]
}

// locateWork fills in the ranges locateBatch reserved: its reads are the
// results it writes.
type locateWork struct{ ix *Index }

func (locateWork) unit() int          { return 1 }
func (locateWork) chunk() int         { return 64 }
func (locateWork) acquire() *struct{} { return nil }
func (locateWork) release(*struct{})  {}

func (w locateWork) mapUnits(_ *struct{}, results, _ []MapResult) (err error) {
	fm := w.ix.fm
	for i := range results {
		res := &results[i]
		if res.ForwardPositions, err = fm.LocateAppend(res.ForwardPositions, res.Forward); err != nil {
			return err
		}
		if res.ReversePositions, err = fm.LocateAppend(res.ReversePositions, res.Reverse); err != nil {
			return err
		}
	}
	return nil
}

// MapReadsInto is MapReads writing into a caller-provided result slice
// (len(dst) must equal len(reads)) — the allocation-free hot path: the
// count-only steady state allocates nothing, per read or per batch.
func (ix *Index) MapReadsInto(dst []MapResult, reads []dna.Seq, opts MapOptions) (MapStats, error) {
	return ix.MapReadsIntoFtab(dst, reads, opts, true)
}

// MapReadsIntoFtab is MapReadsInto with explicit prefix-table control:
// useFtab=false leaves the table out of the search even when the index
// carries one — the mode a BRAM-degraded kernel runs in, whose cycle model
// prices every step.
func (ix *Index) MapReadsIntoFtab(dst []MapResult, reads []dna.Seq, opts MapOptions, useFtab bool) (MapStats, error) {
	start := time.Now()
	if err := mapBatch(exactWork{ix: ix, useFtab: useFtab}, dst, reads, opts); err != nil {
		return MapStats{}, err
	}
	if opts.Locate {
		if err := ix.locateBatch(dst, opts); err != nil {
			return MapStats{}, err
		}
	}
	stats := MapStats{Reads: len(reads)}
	for i := range dst {
		if dst[i].Mapped() {
			stats.MappedReads++
		}
		stats.Occurrences += dst[i].Occurrences()
		stats.TotalSteps += dst[i].Steps
	}
	stats.Elapsed = time.Since(start)
	return stats, nil
}
