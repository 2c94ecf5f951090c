package core

import (
	"fmt"
	"strconv"
	"time"

	"bwaver/internal/align"
	"bwaver/internal/dna"
	"bwaver/internal/fmindex"
)

// Seed-and-extend approximate mapping (the "mem" workload, after BWA-MEM):
// SMEM seeding on the bidirectional index, collinear chaining of the located
// seed hits, banded extension of the best chains, and MAPQ scoring — the
// full pipeline the paper's introduction motivates when it frames exact
// short-fragment matching as "candidate loci in the genome (seeds) to be
// extended by the actual alignment algorithm".

// MemOptions configure the seed-and-extend pipeline. The zero value takes
// the listed defaults.
type MemOptions struct {
	// MinSeedLen is the minimum SMEM length used as a seed; default 19
	// (BWA-MEM's default).
	MinSeedLen int
	// Band is the extension half-band: the largest diagonal drift (net
	// indel length) an alignment may accumulate. Default 16.
	Band int
	// MinScore is the minimum alignment score to report a mapping;
	// default 30.
	MinScore int
	// Paired treats the read stream as interleaved mate pairs (R1, R2,
	// R1, R2, ...) with FR orientation, enabling proper-pair calls and mate
	// rescue.
	Paired bool
	// MinInsert and MaxInsert bound the accepted fragment length for
	// proper-pair calls and the mate-rescue search window. MaxInsert
	// defaults to 1000 when Paired.
	MinInsert, MaxInsert int
}

// The pipeline's fixed settings; extension scores with align.DefaultScoring.
const (
	// memMaxSeedHits caps the occurrences one seed may contribute; seeds
	// more repetitive than this are skipped rather than exploding the chain
	// set — the same ambiguity guard PairMaxHits applies to exact pairing.
	memMaxSeedHits = 256
	// memMaxChains bounds how many chains are extended per orientation.
	memMaxChains = 4
)

// DefaultBandStart is the initial adaptive-extension half-band: wide enough
// for the small indel counts short reads carry, an eighth of the full-band
// DP cell volume. Extensions start at this band and double — re-running —
// whenever the banded optimum looks band-limited, so the full Band remains
// the correctness envelope.
const DefaultBandStart = 4

func (o MemOptions) withDefaults() MemOptions {
	if o.MinSeedLen == 0 {
		o.MinSeedLen = 19
	}
	if o.Band == 0 {
		o.Band = 16
	}
	if o.MinScore == 0 {
		o.MinScore = 30
	}
	if o.Paired && o.MaxInsert == 0 {
		o.MaxInsert = 1000
	}
	return o
}

func (o MemOptions) validate() error {
	if o.MinSeedLen < 1 {
		return fmt.Errorf("core: MinSeedLen %d must be >= 1", o.MinSeedLen)
	}
	if o.Band < 0 {
		return fmt.Errorf("core: Band %d must be >= 0", o.Band)
	}
	if o.MinScore < 1 {
		return fmt.Errorf("core: MinScore %d must be >= 1", o.MinScore)
	}
	if o.MinInsert < 0 || o.MaxInsert < o.MinInsert {
		return fmt.Errorf("core: insert window [%d,%d] invalid", o.MinInsert, o.MaxInsert)
	}
	return nil
}

// MemAlignment is one reported placement of a read.
type MemAlignment struct {
	// Pos is the 0-based leftmost reference position in concatenated
	// coordinates; RefSpan the number of reference bases consumed.
	Pos     int32
	RefSpan int
	// Score is the extension score; MapQ the mapping quality (see MemMapQ).
	Score int
	MapQ  uint8
	// CIGAR is in SAM orientation (reverse-strand alignments describe the
	// reverse-complemented read), including terminal soft clips.
	CIGAR string
	// Forward reports the strand.
	Forward bool
	// NM is the edit distance of the aligned region (SAM NM tag).
	NM int
}

// Mapped reports whether the alignment places the read.
func (a MemAlignment) Mapped() bool { return a.CIGAR != "" }

// MemResult is the outcome of seed-and-extend mapping one read.
type MemResult struct {
	// Best is the reported alignment; zero when the read is unmapped.
	Best MemAlignment
	// SubScore is the best competing score at a distinct locus, 0 if none —
	// the quantity MAPQ discounts for.
	SubScore int
	// Seeds, Chains, and Extensions count pipeline work for this read
	// (after the ambiguity guard).
	Seeds, Chains, Extensions int
	// SeedSteps is the larger per-orientation count of bidirectional
	// extension operations (the two orientations search in parallel
	// pipelines, like the exact kernel) — the pass-1 cycle driver.
	SeedSteps int
	// Cells is the total count of DP cells the extensions evaluated — the
	// pass-2 systolic-array cycle driver.
	Cells int
	// Rescued marks a mate placed by the paired rescue search rather than
	// its own seeds.
	Rescued bool
}

// Mapped reports whether the read was placed.
func (r MemResult) Mapped() bool { return r.Best.Mapped() }

// MemStats aggregates a mem batch.
type MemStats struct {
	Reads       int           `json:"reads"`
	MappedReads int           `json:"mapped_reads"`
	Seeds       int           `json:"seeds"`
	Chains      int           `json:"chains"`
	Extensions  int           `json:"extensions"`
	Rescues     int           `json:"rescues"`
	SeedSteps   int           `json:"seed_steps"`
	Cells       int           `json:"dp_cells"`
	Elapsed     time.Duration `json:"-"`
}

// Merge folds another batch's stats into s.
func (s *MemStats) Merge(o MemStats) {
	s.Reads += o.Reads
	s.MappedReads += o.MappedReads
	s.Seeds += o.Seeds
	s.Chains += o.Chains
	s.Extensions += o.Extensions
	s.Rescues += o.Rescues
	s.SeedSteps += o.SeedSteps
	s.Cells += o.Cells
	s.Elapsed += o.Elapsed
}

// Add folds one read's result into the stats.
func (s *MemStats) Add(r MemResult) {
	s.Reads++
	if r.Mapped() {
		s.MappedReads++
	}
	s.Seeds += r.Seeds
	s.Chains += r.Chains
	s.Extensions += r.Extensions
	if r.Rescued {
		s.Rescues++
	}
	s.SeedSteps += r.SeedSteps
	s.Cells += r.Cells
}

// memState is the lazily-built seed-and-extend substrate: the bidirectional
// index for SMEM seeding and the packed text it reads, which extension
// decodes a window at a time: the index's own, or on an index read from a
// file, which holds none, reconstructed from the index (ExtractReference).
// scratch keeps the batch workers' scratch between batches.
type memState struct {
	bi      *fmindex.BiIndex
	text    dna.PackedSeq
	scratch freeList[memScratch]
}

// EnsureMem builds the seed-and-extend state if the index does not hold one
// yet, and only the part the index lacks: the exact-mapping FM-index is the
// bidirectional index's forward direction whenever it has a locate
// structure, and its prefix table the SMEM search's forward one whenever that
// is deep enough, so only the reverse direction and its table are built.
// Count-only indexes get both directions built afresh. Safe for concurrent
// use; parallel callers share one build.
func (ix *Index) EnsureMem() error {
	if ix.mem.Load() != nil {
		return nil
	}
	ix.memMu.Lock()
	defer ix.memMu.Unlock()
	if ix.mem.Load() != nil {
		return nil
	}
	text := ix.fm.Text()
	if text.Len() == 0 { // never attached to ix.fm, which exact searches read
		ref, err := ix.ExtractReference()
		if err != nil {
			return fmt.Errorf("core: mem state: %w", err)
		}
		text = dna.Pack(ref)
	}
	fwd := ix.fm
	if ix.config.Locate == LocateNone {
		// A forward direction that locates, reading the text shared here.
		full, err := BuildIndex(text.Unpack(), IndexConfig{RRR: ix.config.RRR})
		if err != nil {
			return fmt.Errorf("core: mem state: %w", err)
		}
		full.DropText()
		fwd = full.fm
	}
	bi, err := fmindex.NewBiIndexOver(fwd, text, ix.config.RRR)
	if err != nil {
		return fmt.Errorf("core: mem state: %w", err)
	}
	ix.mem.Store(&memState{bi: bi, text: text})
	return nil
}

// MemBytes returns the footprint of the seed-and-extend state (the forward
// direction's structure and locate structure plus the packed text) as the
// FPGA model's BRAM gate charges it, 0 when not built: RRR nodes in the
// paper's array layout (see DeviceStructureBytes), without the host-side
// prefix tables of the SMEM search and without the exact path's, which a
// forward direction shared with the exact index carries.
func (ix *Index) MemBytes() int {
	st := ix.mem.Load()
	if st == nil {
		return 0
	}
	fwd := st.bi.Forward()
	size := fwd.SizeBytes() - recordPadBytes(fwd) + 8*len(st.text.Words())
	if f := fwd.Ftab(); f != nil {
		size -= f.SizeBytes()
	}
	return size
}

// HostBytes is what the index holds in host memory now: SizeBytes and the
// packed text, plus the seed-and-extend state once EnsureMem has built it —
// the reverse direction and its prefix table, and a forward direction,
// forward table or packed text of its own where it could not share this
// index's (or holds one this index has since dropped).
func (ix *Index) HostBytes() int {
	size := ix.SizeBytes() + ix.fm.TextBytes()
	if st := ix.mem.Load(); st != nil {
		size += st.bi.SizeBytes()
		if st.bi.Forward() == ix.fm {
			size -= ix.fm.SizeBytes()
		}
		if w, own := st.text.Words(), ix.fm.Text().Words(); len(w) > 0 && (len(own) == 0 || &own[0] != &w[0]) {
			size += 8 * len(w)
		}
	}
	return size
}

func (ix *Index) memState() (*memState, error) {
	if err := ix.EnsureMem(); err != nil {
		return nil, err
	}
	return ix.mem.Load(), nil
}

// memCandidate is one extended chain before best-selection.
type memCandidate struct {
	res     align.Result
	forward bool
	query   dna.Seq // the orientation's query (read or its RC)
}

// memScratch is one batch worker's reusable working memory: every buffer
// the per-read pipeline touches, so the steady-state batch path performs no
// heap allocation per read. Kept between batches in memState.scratch; not
// safe for concurrent use.
type memScratch struct {
	// chunk holds the chunk's patterns and, once seeded, their SMEMs in
	// chunk.group; rc is the reverse complement of a read being mapped.
	chunk   chunkBuffer
	rc      dna.Seq
	win     dna.Seq // the window of the text an extension, rescue or NM count reads
	seeds   []Seed
	posSlab []int32 // located seed positions (per SMEM)
	chains  chainScratch
	cands   []memCandidate
	ext     align.Extender
	cigar   []byte            // CIGAR render buffer
	interns map[string]string // CIGAR intern table, bounded
}

// setFullBand sets the extender's work-cutting heuristics: z-drop at
// align.DefaultZDrop and adaptive band growth from DefaultBandStart, or with
// fullBand neither, so that every extension evaluates its whole band.
func (sc *memScratch) setFullBand(fullBand bool) {
	sc.ext.ZDrop, sc.ext.BandStart = 0, DefaultBandStart
	if fullBand {
		sc.ext.ZDrop, sc.ext.BandStart = -1, 0
	}
}

// memInternCap bounds the CIGAR intern table; real batches repeat a small
// set of CIGAR shapes, but a pathological input must not grow the table
// unboundedly.
const memInternCap = 1 << 15

// internCIGAR returns the rendered bytes as a string, reusing a previously
// interned copy when the same CIGAR was seen before — the final allocation
// on the per-read path (the compiler elides the []byte→string conversion in
// the map lookup).
func (sc *memScratch) internCIGAR(b []byte) string {
	if s, ok := sc.interns[string(b)]; ok {
		return s
	}
	s := string(b)
	if sc.interns == nil {
		sc.interns = make(map[string]string)
	}
	if len(sc.interns) < memInternCap {
		sc.interns[s] = s
	}
	return s
}

// mapRead maps the chunk's read i, whose SMEMs memWork.mapUnits has searched.
func (st *memState) mapRead(sc *memScratch, i int, read dna.Seq, opts MemOptions) (MemResult, error) {
	var out MemResult
	if len(read) == 0 {
		return out, nil
	}
	sc.cands = sc.cands[:0]
	for orient := 0; orient < 2; orient++ {
		query, forward := read, true
		if orient == 1 {
			sc.rc = read.ReverseComplementInto(sc.rc)
			query, forward = sc.rc, false
		}
		smems, steps, err := sc.chunk.group.Result(2*i + orient)
		if err != nil {
			return out, err
		}
		seeds := sc.seeds[:0]
		// The two orientations search in parallel pipelines, so the slower
		// one bounds the seeding latency (like MapResult.Steps).
		out.SeedSteps = max(out.SeedSteps, steps)
		for i := range smems {
			s := &smems[i]
			if s.Count() > memMaxSeedHits {
				continue // hyper-repetitive seed: ambiguity guard
			}
			// A match of few occurrences comes located, in the row order
			// LocateAppend would give.
			positions := s.Positions()
			if positions == nil {
				if positions, err = st.bi.Forward().LocateAppend(sc.posSlab[:0], s.Rows.Fwd); err != nil {
					return out, err
				}
				sc.posSlab = positions[:0]
			}
			for _, p := range positions {
				seeds = append(seeds, Seed{QStart: s.Start, QEnd: s.End, RPos: p})
			}
		}
		sc.seeds = seeds[:0]
		out.Seeds += len(seeds)
		chains := sc.chains.chain(seeds, opts.Band, memMaxChains)
		out.Chains += len(chains)
		for _, c := range chains {
			res, err := st.extendSeed(sc, query, c.Seeds[c.Anchor], opts)
			if err != nil {
				return out, err
			}
			out.Extensions++
			out.Cells += res.Cells
			if res.Score > 0 {
				sc.cands = append(sc.cands, memCandidate{res: res, forward: forward, query: query})
			}
		}
	}
	best, sub := pickBest(sc.cands, opts.Band)
	out.SubScore = sub
	if best == nil || best.res.Score < opts.MinScore {
		sc.ext.Reset()
		return out, nil
	}
	out.Best = best.alignmentBuf(sc, sub, st.text)
	sc.ext.Reset()
	return out, nil
}

// extendSeed runs ExtendSeed on the window of the text it reads, the band's
// reach either side of the anchor's diagonal, decoded into the scratch.
func (st *memState) extendSeed(sc *memScratch, query dna.Seq, a Seed, opts MemOptions) (align.Result, error) {
	n, rPos := st.text.Len(), int(a.RPos)
	lo := min(n, max(0, rPos-a.QStart-opts.Band))
	sc.win = st.text.UnpackRange(sc.win, lo, max(lo, min(n, rPos+len(query)-a.QStart+opts.Band)))
	res, err := sc.ext.ExtendSeed(query, sc.win, a.QStart, rPos-lo, a.Len(), opts.Band, align.DefaultScoring)
	res.RefStart, res.RefEnd = res.RefStart+lo, res.RefEnd+lo
	return res, err
}

// pickBest selects the top-scoring candidate (deterministic tie-breaks:
// lower reference position, then forward strand) and the best competing
// score at a locus more than slop away from the winner's.
func pickBest(cands []memCandidate, slop int) (*memCandidate, int) {
	var best *memCandidate
	for i := range cands {
		c := &cands[i]
		if best == nil {
			best = c
			continue
		}
		switch {
		case c.res.Score > best.res.Score:
			best = c
		case c.res.Score == best.res.Score && c.res.RefStart < best.res.RefStart:
			best = c
		case c.res.Score == best.res.Score && c.res.RefStart == best.res.RefStart && c.forward && !best.forward:
			best = c
		}
	}
	if best == nil {
		return nil, 0
	}
	sub := 0
	for i := range cands {
		c := &cands[i]
		if c == best {
			continue
		}
		dist := c.res.RefStart - best.res.RefStart
		if dist < 0 {
			dist = -dist
		}
		if dist <= slop && c.forward == best.forward {
			continue // same locus reached through another chain
		}
		if c.res.Score > sub {
			sub = c.res.Score
		}
	}
	return best, sub
}

// alignmentBuf renders a winning candidate as a MemAlignment using the
// scratch's CIGAR buffer and intern table, so a repeated CIGAR shape costs
// no allocation. The alignment's text is decoded for its NM.
func (c *memCandidate) alignmentBuf(sc *memScratch, sub int, text dna.PackedSeq) MemAlignment {
	r := c.res
	sc.cigar = appendClippedCIGAR(sc.cigar[:0], r, len(c.query))
	sc.win = text.UnpackRange(sc.win, r.RefStart, r.RefEnd)
	return MemAlignment{
		Pos:     int32(r.RefStart),
		RefSpan: r.RefEnd - r.RefStart,
		Score:   r.Score,
		MapQ:    MemMapQ(r.Score, sub),
		CIGAR:   sc.internCIGAR(sc.cigar),
		Forward: c.forward,
		NM:      editDistance(r, c.query, sc.win),
	}
}

// MemMapQ is the mapping quality of a best score against its runner-up at a
// distinct locus: 60·(best−sub)/best, the linear discount of the
// second-best evidence, clamped to [0, 60]. A read whose best placement is
// tied elsewhere gets 0; a read with no competitor gets 60.
func MemMapQ(best, sub int) uint8 {
	if best <= 0 || sub >= best {
		return 0
	}
	if sub < 0 {
		sub = 0
	}
	return uint8(60 * (best - sub) / best)
}

// appendClippedCIGAR appends an extension traceback's CIGAR to dst, wrapped
// in the terminal soft clips the unaligned query prefix and suffix imply.
func appendClippedCIGAR(dst []byte, r align.Result, queryLen int) []byte {
	if r.QueryStart > 0 {
		dst = strconv.AppendInt(dst, int64(r.QueryStart), 10)
		dst = append(dst, 'S')
	}
	dst = r.AppendCIGAR(dst)
	if tail := queryLen - r.QueryEnd; tail > 0 {
		dst = strconv.AppendInt(dst, int64(tail), 10)
		dst = append(dst, 'S')
	}
	return dst
}

// editDistance counts the NM tag over an extension traceback: mismatched
// aligned bases plus inserted and deleted bases; ref is [RefStart, RefEnd).
func editDistance(r align.Result, query, ref dna.Seq) int {
	nm := 0
	qi, ri := r.QueryStart, 0
	for _, op := range r.Ops {
		switch op {
		case align.OpMatch:
			if query[qi] != ref[ri] {
				nm++
			}
			qi++
			ri++
		case align.OpInsert:
			nm++
			qi++
		case align.OpDelete:
			nm++
			ri++
		}
	}
	return nm
}

// MemPairResult is the outcome of mapping one mate pair.
type MemPairResult struct {
	R1, R2 MemResult
	// Proper reports FR orientation with the fragment length inside the
	// insert window.
	Proper bool
	// Insert is the observed fragment length when Proper (R1's signed TLen
	// is +Insert or −Insert by position).
	Insert int
}

// MemPairFromResults reassembles a pair-level result from two per-read
// results — the shape batch APIs return — re-deriving the proper-pair call.
// opts must be the options the reads were mapped with.
func MemPairFromResults(r1, r2 MemResult, opts MemOptions) MemPairResult {
	opts = opts.withDefaults()
	out := MemPairResult{R1: r1, R2: r2}
	out.Proper, out.Insert = properPair(r1, r2, opts)
	return out
}

// mapPair maps the chunk's mate pair reads[i], reads[i+1] into dst: both
// mates through the single-end pipeline, then a rescue search for a mate the
// seeds missed.
func (st *memState) mapPair(sc *memScratch, i int, reads []dna.Seq, opts MemOptions, dst []MemResult) (err error) {
	r1, r2 := reads[i], reads[i+1]
	if dst[0], err = st.mapRead(sc, i, r1, opts); err != nil {
		return err
	}
	if dst[1], err = st.mapRead(sc, i+1, r2, opts); err != nil {
		return err
	}
	// Rescue: one mapped mate defines the window the other must fall in.
	if dst[0].Mapped() && !dst[1].Mapped() {
		st.rescueMate(sc, &dst[1], r2, dst[0].Best, opts)
	} else if dst[1].Mapped() && !dst[0].Mapped() {
		st.rescueMate(sc, &dst[0], r1, dst[1].Best, opts)
	}
	return nil
}

// rescueMate searches the insert window implied by the mapped anchor mate
// for the missing mate in the FR-expected orientation, charging the scan's
// DP cells to the rescued read. A hit must still clear MinScore. The full
// Smith-Waterman over the window runs in the scratch's extender, so rescue
// stays allocation-free too.
func (st *memState) rescueMate(sc *memScratch, dst *MemResult, read dna.Seq, anchor MemAlignment, opts MemOptions) {
	if opts.MaxInsert <= 0 || len(read) == 0 {
		return
	}
	var wStart, wEnd int
	var query dna.Seq
	var forward bool
	if anchor.Forward {
		// Anchor is the left mate: the missing mate lies downstream on the
		// reverse strand.
		wStart = int(anchor.Pos)
		wEnd = min(st.text.Len(), wStart+opts.MaxInsert)
		sc.rc = read.ReverseComplementInto(sc.rc)
		query = sc.rc
		forward = false
	} else {
		// Anchor is the right mate: the missing mate lies upstream, forward.
		wEnd = int(anchor.Pos) + anchor.RefSpan
		wStart = max(0, wEnd-opts.MaxInsert)
		query = read
		forward = true
	}
	if wEnd-wStart < opts.MinSeedLen {
		return
	}
	sc.win = st.text.UnpackRange(sc.win, wStart, wEnd)
	res, err := sc.ext.SmithWaterman(query, sc.win, align.DefaultScoring)
	if err != nil {
		sc.ext.Reset()
		return
	}
	dst.Cells += res.Cells
	if res.Score < opts.MinScore {
		sc.ext.Reset()
		return
	}
	res.RefStart += wStart
	res.RefEnd += wStart
	cand := memCandidate{res: res, forward: forward, query: query}
	dst.Best = cand.alignmentBuf(sc, 0, st.text)
	sc.ext.Reset()
	// A rescued placement is evidence from the pair, not the read alone:
	// cap its quality below a confident unique single-end hit.
	if dst.Best.MapQ > 30 {
		dst.Best.MapQ = 30
	}
	dst.Rescued = true
}

// properPair applies the FR concordance test of core/pairs.go to two mem
// placements: opposite strands, forward mate leftmost, fragment length
// inside the insert window.
func properPair(r1, r2 MemResult, opts MemOptions) (bool, int) {
	if !r1.Mapped() || !r2.Mapped() || r1.Best.Forward == r2.Best.Forward {
		return false, 0
	}
	fwd, rev := r1.Best, r2.Best
	if !fwd.Forward {
		fwd, rev = rev, fwd
	}
	insert := int(rev.Pos) + rev.RefSpan - int(fwd.Pos)
	if int(fwd.Pos) > int(rev.Pos) || insert < opts.MinInsert || insert > opts.MaxInsert {
		return false, 0
	}
	return true, insert
}

// MapReadsMem maps a batch through the seed-and-extend pipeline, pairing
// consecutive reads when opts.Paired (an odd batch maps its last read
// single-end), on one worker — the sequential schedule. MapReadsMemInto with
// any worker count produces bit-identical results, and the FPGA kernel maps
// through the same engine, so all backends agree by construction.
func (ix *Index) MapReadsMem(reads []dna.Seq, opts MemOptions) ([]MemResult, MemStats, error) {
	results := make([]MemResult, len(reads))
	stats, err := ix.MapReadsMemInto(results, reads, opts, MapOptions{})
	if err != nil {
		return nil, MemStats{}, err
	}
	return results, stats, nil
}

// memWork is seed-and-extend mapping as a workload value; opts carry their
// defaults and have been validated. fullBand switches the extension
// heuristics off (memScratch.setFullBand).
type memWork struct {
	st       *memState
	opts     MemOptions
	fullBand bool
}

// unit keeps a mate pair with one worker, in order, so rescue and the
// proper-pair call are identical to the sequential schedule.
func (w memWork) unit() int {
	if w.opts.Paired {
		return 2
	}
	return 1
}

// chunk is smaller than the exact path's: mem reads are ~100x more expensive
// than exact lookups, so this keeps cancellation and progress responsive
// without measurable cursor contention.
func (memWork) chunk() int { return 16 }

func (w memWork) acquire() *memScratch {
	sc := w.st.scratch.get()
	sc.setFullBand(w.fullBand)
	return sc
}

func (w memWork) release(sc *memScratch) { w.st.scratch.put(sc) }

// mapUnits seeds the whole chunk first — the SMEMs of every read and its
// reverse complement as one group (fmindex.BiIndex.SMEMsGroup), so that the
// searches' table, suffix-array and text loads overlap — then chains,
// extends and rescues read by read and pair by pair.
func (w memWork) mapUnits(sc *memScratch, reads []dna.Seq, dst []MemResult) (err error) {
	sc.chunk.encode(reads)
	if err = w.st.bi.SMEMsGroup(&sc.chunk.group, sc.chunk.pats, w.opts.MinSeedLen); err != nil {
		return err
	}
	i := 0
	if w.opts.Paired {
		for ; i+1 < len(reads); i += 2 {
			if err = w.st.mapPair(sc, i, reads, w.opts, dst[i:]); err != nil {
				return err
			}
		}
	}
	// Single-end reads, and the lone last read of an odd paired batch, mapped
	// single-end exactly as the sequential loop does.
	for ; i < len(reads); i++ {
		if dst[i], err = w.st.mapRead(sc, i, reads[i], w.opts); err != nil {
			return err
		}
	}
	return nil
}

// MapReadsMemInto is MapReadsMem writing into a caller-provided result
// slice (len(dst) must equal len(reads)) — the allocation-free batch hot
// path. run.Workers controls parallelism (0 or 1 sequential, -1 all CPUs);
// results are written by index, so any worker count yields bit-identical
// output in the same order as the sequential schedule. run.Context is
// polled between chunks; cancellation abandons the batch mid-flight.
// run.Locate is ignored (mem results always carry positions).
func (ix *Index) MapReadsMemInto(dst []MemResult, reads []dna.Seq, opts MemOptions, run MapOptions) (MemStats, error) {
	return ix.mapMemInto(dst, reads, opts, run, false)
}

// mapMemInto is MapReadsMemInto with the extension heuristics on, or with
// fullBand off: the run they are held to.
func (ix *Index) mapMemInto(dst []MemResult, reads []dna.Seq, opts MemOptions, run MapOptions, fullBand bool) (MemStats, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return MemStats{}, err
	}
	mem, err := ix.memState()
	if err != nil {
		return MemStats{}, err
	}
	start := time.Now()
	if err := mapBatch(memWork{st: mem, opts: opts, fullBand: fullBand}, dst, reads, run); err != nil {
		return MemStats{}, err
	}
	var stats MemStats
	for i := range dst {
		stats.Add(dst[i])
	}
	stats.Elapsed = time.Since(start)
	return stats, nil
}
