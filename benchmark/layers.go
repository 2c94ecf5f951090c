package main

// layers.go is the only file of the benchmark that imports the program under
// test. Everything else sees the opaque handles and plain numbers defined
// here, so a refactor of the layers' internals edits at most this file — and
// it calls only the entry points ROADMAP item 3 keeps.

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc64"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"time"

	"bwaver/internal/align"
	"bwaver/internal/baseline"
	"bwaver/internal/bwt"
	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/fastx"
	"bwaver/internal/fmindex"
	"bwaver/internal/fpga"
	"bwaver/internal/qc"
	"bwaver/internal/readsim"
	"bwaver/internal/rrr"
	"bwaver/internal/sam"
	"bwaver/internal/suffixarray"
	"bwaver/internal/wavelet"
)

// traceChunk is how many reads one traced call into a batch entry point
// covers; an untraced pass hands over the whole read set at once.
const traceChunk = 4096

var crcTable = crc64.MakeTable(crc64.ECMA)

// sink keeps the ladder loops' results alive.
var sink int

// ---------------------------------------------------------------- inputs

type reference struct {
	seq dna.Seq
}

// newReference generates the seeded genome: kind is "chr21" or "ecoli",
// bases > 0 overrides the paper length (smoke scale).
func newReference(kind string, seed int64, bases int) (*reference, error) {
	full := readsim.EColiLength
	gen := readsim.EColiLike
	if kind == "chr21" {
		full, gen = readsim.Chr21Length, readsim.Chr21Like
	}
	scale := 1.0
	if bases > 0 && bases < full {
		scale = float64(bases) / float64(full)
	}
	seq, err := gen(seed, scale)
	if err != nil {
		return nil, fmt.Errorf("generating %s reference: %w", kind, err)
	}
	return &reference{seq: seq}, nil
}

func (r *reference) bases() int { return len(r.seq) }

func seqDigest(crc uint64, s dna.Seq) uint64 {
	var buf [4096]byte
	for len(s) > 0 {
		n := min(len(s), len(buf))
		for i := 0; i < n; i++ {
			buf[i] = byte(s[i])
		}
		crc = crc64.Update(crc, crcTable, buf[:n])
		s = s[n:]
	}
	return crc
}

func (r *reference) digest() uint64 { return seqDigest(0, r.seq) }

func (r *reference) fasta(name string) ([]byte, error) {
	var b bytes.Buffer
	w := fastx.NewWriter(&b, fastx.FASTA, false)
	if err := w.Write(&fastx.Record{ID: name, Seq: []byte(r.seq.String())}); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// readSet is one simulated read set with its provenance. Exact sets hold
// single reads; paired sets hold interleaved mates R1,R2,R1,R2...
type readSet struct {
	seqs   []dna.Seq
	ids    []string
	origin []int  // leftmost reference base covered, -1 for random reads
	rev    []bool // read is the reverse complement of the reference there
	paired bool
}

func (s *readSet) n() int { return len(s.seqs) }

func (s *readSet) planted() int {
	n := 0
	for _, o := range s.origin {
		if o >= 0 {
			n++
		}
	}
	return n
}

func (s *readSet) digest() uint64 {
	var crc uint64
	for i, q := range s.seqs {
		crc = crc64.Update(crc, crcTable, []byte(s.ids[i]))
		crc = seqDigest(crc, q)
	}
	return crc
}

func (s *readSet) fastq() ([]byte, error) {
	var b bytes.Buffer
	w := fastx.NewWriter(&b, fastx.FASTQ, false)
	for i, q := range s.seqs {
		if err := w.Write(&fastx.Record{ID: s.ids[i], Seq: []byte(q.String())}); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// head returns the first n reads as their own set.
func (s *readSet) head(n int) *readSet {
	n = min(n, s.n())
	return &readSet{seqs: s.seqs[:n], ids: s.ids[:n], origin: s.origin[:n], rev: s.rev[:n], paired: s.paired}
}

// simulateExact draws error-free reads: mapping ratio 0.75, half of the
// planted ones from the reverse strand.
func simulateExact(ref *reference, count, length int, seed int64) (*readSet, error) {
	sim, err := readsim.Simulate(ref.seq, readsim.ReadsConfig{
		Count: count, Length: length, MappingRatio: 0.75, RevCompFraction: 0.5, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("simulating reads: %w", err)
	}
	s := &readSet{}
	for _, r := range sim {
		s.seqs = append(s.seqs, r.Seq)
		s.ids = append(s.ids, r.ID)
		s.origin = append(s.origin, r.Origin)
		s.rev = append(s.rev, r.RevStrand)
	}
	return s, nil
}

// simulatePairs draws FR pairs with 2 % substitutions, ratio 0.9, insert
// 300 +- 30.
func simulatePairs(ref *reference, pairs, length int, seed int64) (*readSet, error) {
	sim, err := readsim.SimulatePairs(ref.seq, readsim.PairConfig{
		Count: pairs, ReadLength: length, InsertMean: 300, InsertStdDev: 30,
		MappingRatio: 0.9, ErrorRate: 0.02, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("simulating pairs: %w", err)
	}
	s := &readSet{paired: true}
	for _, p := range sim {
		o1, o2 := -1, -1
		if p.Origin >= 0 {
			o1, o2 = p.Origin, p.Origin+p.Insert-len(p.R2)
		}
		s.seqs = append(s.seqs, p.R1, p.R2)
		s.ids = append(s.ids, p.ID+"/1", p.ID+"/2")
		s.origin = append(s.origin, o1, o2)
		s.rev = append(s.rev, false, true)
	}
	return s, nil
}

// ---------------------------------------------------------------- index

type index struct {
	ix  *core.Index
	ref *reference
}

func defaultIndexConfig() core.IndexConfig {
	return core.IndexConfig{FtabK: core.DefaultFtabK}
}

// buildIndex is core.BuildIndexCtx with the default configuration (b=15,
// sf=50, full suffix array, ftab k=10).
func buildIndex(tr *tracer, parent int, ref *reference) (*index, error) {
	id := tr.start(parent, "core.BuildIndexCtx")
	ix, err := core.BuildIndexCtx(context.Background(), ref.seq, defaultIndexConfig())
	tr.end(id, int64(ref.bases()))
	if err != nil {
		return nil, fmt.Errorf("building index: %w", err)
	}
	return &index{ix: ix, ref: ref}, nil
}

func (x *index) structureBitsPerBase() float64 {
	return 8 * float64(x.ix.StructureBytes()) / float64(x.ix.RefLength())
}

func (x *index) ensureMem(tr *tracer, parent int) error {
	id := tr.start(parent, "core.EnsureMem")
	err := x.ix.EnsureMem()
	tr.end(id, int64(x.ix.RefLength()))
	return err
}

// saveLoad round-trips the index through SaveFile/LoadFile under dir and
// returns the file size; the loaded copy must describe the same structure.
func (x *index) saveLoad(tr *tracer, parent int, path string) (int64, error) {
	id := tr.start(parent, "core.SaveFile")
	err := x.ix.SaveFile(path)
	tr.end(id, 1)
	if err != nil {
		return 0, fmt.Errorf("saving index: %w", err)
	}
	size, err := fileSize(path)
	if err != nil {
		return 0, err
	}
	id = tr.start(parent, "core.LoadFile")
	loaded, err := core.LoadFile(path)
	tr.end(id, 1)
	if err != nil {
		return 0, fmt.Errorf("loading index: %w", err)
	}
	if loaded.StructureBytes() != x.ix.StructureBytes() || loaded.RefLength() != x.ix.RefLength() {
		return 0, fmt.Errorf("loaded index differs: %d structure bytes over %d bases, built %d over %d",
			loaded.StructureBytes(), loaded.RefLength(), x.ix.StructureBytes(), x.ix.RefLength())
	}
	return size, nil
}

// loadedBitsPerBase reads an index file the server spilled and reports its
// structure size, the served workload's view of the compression claim.
func loadedBitsPerBase(path string) (float64, error) {
	ix, err := core.LoadFile(path)
	if err != nil {
		return 0, fmt.Errorf("loading spilled index: %w", err)
	}
	return 8 * float64(ix.StructureBytes()) / float64(ix.RefLength()), nil
}

// ---------------------------------------------------------------- exact mapping

type exactResults struct {
	res []core.MapResult
}

func newExactResults(n int) *exactResults { return &exactResults{res: make([]core.MapResult, n)} }

// mapExact is one pass of core.(*Index).MapReadsInto{Locate:true}.
func (x *index) mapExact(tr *tracer, parent int, reads *readSet, workers int, dst *exactResults) error {
	chunk := reads.n()
	if tr != nil {
		chunk = traceChunk
	}
	opts := core.MapOptions{Locate: true, Workers: workers}
	for lo := 0; lo < reads.n(); lo += chunk {
		hi := min(lo+chunk, reads.n())
		id := tr.start(parent, "core.MapReadsInto")
		_, err := x.ix.MapReadsInto(dst.res[lo:hi], reads.seqs[lo:hi], opts)
		tr.end(id, int64(hi-lo))
		if err != nil {
			return fmt.Errorf("MapReadsInto: %w", err)
		}
	}
	return nil
}

func matchesAt(ref, read dna.Seq, pos int) bool {
	if pos < 0 || pos+len(read) > len(ref) {
		return false
	}
	for i, b := range read {
		if ref[pos+i] != b {
			return false
		}
	}
	return true
}

func containsPos(ps []int32, p int) bool {
	for _, q := range ps {
		if int(q) == p {
			return true
		}
	}
	return false
}

// checkExact verifies every reported position against the reference and that
// every planted read reports its origin. It returns the number of reads that
// fail, a description of the first failure, and how many of the planted reads
// report their origin.
func (x *index) checkExact(reads *readSet, got *exactResults) (failed int, first string, correct, planted int) {
	ref := x.ref.seq
	var rc dna.Seq
	for i, read := range reads.seqs {
		r := got.res[i]
		rc = read.ReverseComplementInto(rc)
		why := ""
		switch {
		case r.Forward.Count() != len(r.ForwardPositions) || r.Reverse.Count() != len(r.ReversePositions):
			why = "located positions do not match the range sizes"
		case reads.origin[i] >= 0 && !reads.rev[i] && !containsPos(r.ForwardPositions, reads.origin[i]):
			why = "planted forward read does not report its origin"
		case reads.origin[i] >= 0 && reads.rev[i] && !containsPos(r.ReversePositions, reads.origin[i]):
			why = "planted reverse read does not report its origin"
		}
		for _, p := range r.ForwardPositions {
			if why == "" && !matchesAt(ref, read, int(p)) {
				why = fmt.Sprintf("forward position %d does not spell the read", p)
			}
		}
		for _, p := range r.ReversePositions {
			if why == "" && !matchesAt(ref, rc, int(p)) {
				why = fmt.Sprintf("reverse position %d does not spell the read's complement", p)
			}
		}
		if reads.origin[i] >= 0 {
			planted++
		}
		switch {
		case why != "":
			failed++
			if first == "" {
				first = fmt.Sprintf("read %s: %s", reads.ids[i], why)
			}
		case reads.origin[i] >= 0:
			correct++
		}
	}
	return failed, first, correct, planted
}

// exactRow renders result i the way the server's TSV and NDJSON rows carry
// it: counts plus sorted, comma-joined positions ("-" when none).
func (r *exactResults) row(i int) (fwCount int, fwPos string, rcCount int, rcPos string) {
	m := r.res[i]
	return m.Forward.Count(), joinSorted(m.ForwardPositions), m.Reverse.Count(), joinSorted(m.ReversePositions)
}

func joinSorted(ps []int32) string {
	if len(ps) == 0 {
		return "-"
	}
	s := slices.Clone(ps)
	slices.Sort(s)
	var b []byte
	for i, p := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(p), 10)
	}
	return string(b)
}

// ---------------------------------------------------------------- exact ladder

// patterns converts reads to the symbol slices fmindex takes, forward and
// reverse complement, outside any timed span.
func patterns(reads *readSet) (fw, rc [][]uint8) {
	fw = make([][]uint8, reads.n())
	rc = make([][]uint8, reads.n())
	for i, q := range reads.seqs {
		f := make([]uint8, len(q))
		r := make([]uint8, len(q))
		for j, b := range q {
			f[j] = uint8(b)
			r[len(q)-1-j] = uint8(b.Complement())
		}
		fw[i], rc[i] = f, r
	}
	return fw, rc
}

// ladderRounds is how often each rung is repeated; the per-layer metrics take
// the fastest round, for the reason timedPasses gives.
const ladderRounds = 16

// exactLadder times the rungs below the batch engine on the index's own
// structures: rrr.Rank1, wavelet.Rank/RankAll, fmindex.Step/StepAll, the
// ftab search and locate, core.MapRead and the one-worker batch pass. Every
// rung runs ladderRounds times; spans carry the op counts the per-layer
// metrics divide by.
func (x *index) exactLadder(tr *tracer, parent int, reads *readSet, seed int64, ladderOps int) error {
	fm := x.ix.FM()
	occ, ok := fm.OccProvider().(*fmindex.WaveletOcc)
	if !ok {
		return fmt.Errorf("index occ provider is %s, want the wavelet tree", fm.OccName())
	}
	tree := occ.Tree
	n := tree.Len()
	per := ladderOps / ladderRounds
	rng := rand.New(rand.NewSource(seed))
	pos := make([]int32, per)
	syms := make([]uint8, per)
	for i := range pos {
		pos[i] = int32(rng.Intn(n + 1))
		syms[i] = uint8(rng.Intn(dna.AlphabetSize))
	}

	// rrr: the root node's bit-vector rebuilt from the BWT's top bit.
	id := tr.start(parent, "rrr.New")
	root, err := rrr.New(func(i int) bool { return tree.Access(i) >= dna.AlphabetSize/2 }, n, x.ix.Config().RRR)
	tr.end(id, int64(n))
	if err != nil {
		return fmt.Errorf("rebuilding root bit-vector: %w", err)
	}

	// Ranges from real searches: the steps the engine executes after the
	// prefix table has answered the first k symbols.
	fw, rc := patterns(reads)
	skip := x.ix.FtabK()
	ranges := make([]fmindex.Range, 0, per)
	stepSyms := make([]uint8, 0, per)
	for i := 0; len(ranges) < per; i = (i + 1) % len(fw) {
		p := fw[i]
		r := fm.All()
		for j := len(p) - 1; j >= 0 && !r.Empty() && len(ranges) < per; j-- {
			if len(p)-1-j >= skip {
				ranges = append(ranges, r)
				stepSyms = append(stepSyms, p[j])
			}
			r = fm.Step(r, p[j])
		}
	}

	acc := 0
	counts := make([]int, dna.AlphabetSize)
	all := make([]fmindex.Range, dna.AlphabetSize)
	found := make([]fmindex.Range, 0, 2*reads.n())
	one := make([]core.MapResult, reads.n())
	var slab []int32
	for round := 0; round < ladderRounds; round++ {
		id = tr.start(parent, "rrr.Rank1")
		for _, p := range pos {
			acc += root.Rank1(int(p))
		}
		tr.end(id, int64(per))

		id = tr.start(parent, "wavelet.Rank")
		for i, p := range pos {
			acc += tree.Rank(syms[i], int(p))
		}
		tr.end(id, int64(per))

		id = tr.start(parent, "wavelet.RankAll")
		for _, p := range pos {
			tree.RankAll(int(p), counts)
			acc += counts[0]
		}
		tr.end(id, int64(per))

		id = tr.start(parent, "fmindex.Step")
		for i, r := range ranges {
			acc += fm.Step(r, stepSyms[i]).Start
		}
		tr.end(id, int64(per))

		id = tr.start(parent, "fmindex.StepAll")
		for _, r := range ranges {
			fm.StepAll(r, all)
			acc += all[0].Start
		}
		tr.end(id, int64(per))

		// Search and locate replay: what MapReadsInto does per read, minus
		// the engine.
		before := x.ix.FtabStats()
		found = found[:0]
		var steps int64
		id = tr.start(parent, "fmindex.SearchWithFtabSteps")
		for i := range fw {
			rf, sf := fm.SearchWithFtabSteps(fw[i])
			rr, sr := fm.SearchWithFtabSteps(rc[i])
			found = append(found, rf, rr)
			steps += int64(sf + sr)
		}
		tr.end(id, int64(len(fw)))
		if round == 0 {
			after := x.ix.FtabStats()
			tr.count("fmindex.search_steps", float64(steps))
			tr.count("fmindex.ftab_hits", float64(after.Hits-before.Hits))
			tr.count("fmindex.ftab_lookups", float64(after.Hits+after.Misses+after.Short-before.Hits-before.Misses-before.Short))
		}

		var occs int64
		id = tr.start(parent, "fmindex.LocateAppend")
		for _, r := range found {
			if r.Empty() {
				continue
			}
			slab, err = fm.LocateAppend(slab[:0], r)
			if err != nil {
				return fmt.Errorf("LocateAppend: %w", err)
			}
			occs += int64(len(slab))
		}
		tr.end(id, occs)

		id = tr.start(parent, "core.MapRead")
		for _, q := range reads.seqs {
			acc += x.ix.MapRead(q).Steps
		}
		tr.end(id, int64(reads.n()))

		id = tr.start(parent, "core.MapReadsInto.1w")
		_, err := x.ix.MapReadsInto(one, reads.seqs, core.MapOptions{Locate: true, Workers: 1})
		tr.end(id, int64(reads.n()))
		if err != nil {
			return fmt.Errorf("MapReadsInto: %w", err)
		}
	}
	sink += acc
	return nil
}

// mallocs reports the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// ---------------------------------------------------------------- baseline

type baselineMapper struct {
	m *baseline.Mapper
}

func newBaseline(tr *tracer, parent int, ref *reference) (*baselineMapper, error) {
	id := tr.start(parent, "baseline.NewMapper")
	m, err := baseline.NewMapper(ref.seq)
	tr.end(id, int64(ref.bases()))
	if err != nil {
		return nil, fmt.Errorf("building baseline: %w", err)
	}
	return &baselineMapper{m: m}, nil
}

// mapAndCompare runs baseline.(*Mapper).MapReads(threads, locate) and counts
// reads whose occurrence counts differ from the succinct index's.
func (b *baselineMapper) mapAndCompare(tr *tracer, parent int, reads *readSet, threads int, want *exactResults) (differ int, err error) {
	id := tr.start(parent, "baseline.MapReads")
	res, _, err := b.m.MapReads(reads.seqs, threads, true)
	tr.end(id, int64(reads.n()))
	if err != nil {
		return 0, fmt.Errorf("baseline MapReads: %w", err)
	}
	for i, r := range res {
		if r.Forward.Count() != want.res[i].Forward.Count() || r.Reverse.Count() != want.res[i].Reverse.Count() {
			differ++
		}
	}
	return differ, nil
}

// occLadder times CheckpointOcc.Occ over seeded positions.
func (b *baselineMapper) occLadder(tr *tracer, parent int, seed int64, ladderOps int) error {
	occ, ok := b.m.FM().OccProvider().(*fmindex.CheckpointOcc)
	if !ok {
		return fmt.Errorf("baseline occ provider is %s, want the checkpointed one", b.m.FM().OccName())
	}
	rng := rand.New(rand.NewSource(seed))
	n := occ.Len()
	pos := make([]int32, ladderOps/ladderRounds)
	syms := make([]uint8, len(pos))
	for i := range pos {
		pos[i] = int32(rng.Intn(n + 1))
		syms[i] = uint8(rng.Intn(dna.AlphabetSize))
	}
	acc := 0
	for round := 0; round < ladderRounds; round++ {
		id := tr.start(parent, "baseline.CheckpointOcc.Occ")
		for i, p := range pos {
			acc += occ.Occ(syms[i], int(p))
		}
		tr.end(id, int64(len(pos)))
	}
	sink += acc
	return nil
}

// ---------------------------------------------------------------- construction by hand

// buildByHand repeats BuildIndexCtx's phases through each package's public
// constructor so every phase gets its own span.
func buildByHand(tr *tracer, parent int, ref *reference) error {
	cfg := defaultIndexConfig()
	text := make([]uint8, ref.bases())
	for i, b := range ref.seq {
		text[i] = uint8(b)
	}
	id := tr.start(parent, "suffixarray.Build")
	sa, err := suffixarray.Build(text, dna.AlphabetSize)
	tr.end(id, int64(len(text)))
	if err != nil {
		return fmt.Errorf("suffixarray.Build: %w", err)
	}
	id = tr.start(parent, "bwt.Transform")
	transform, err := bwt.Transform(text, sa)
	tr.end(id, int64(len(text)))
	if err != nil {
		return fmt.Errorf("bwt.Transform: %w", err)
	}
	id = tr.start(parent, "wavelet.New")
	occ, err := fmindex.NewWaveletOccBackend(transform.Data, dna.AlphabetSize, wavelet.RRRBackend(rrr.DefaultParams))
	tr.end(id, int64(len(text)))
	if err != nil {
		return fmt.Errorf("wavelet encode: %w", err)
	}
	fm, err := fmindex.New(transform, dna.AlphabetSize, occ, fmindex.Options{SA: sa})
	if err != nil {
		return fmt.Errorf("fmindex.New: %w", err)
	}
	id = tr.start(parent, "fmindex.BuildFtab")
	_, err = fm.BuildFtab(cfg.FtabK)
	tr.end(id, 1)
	if err != nil {
		return fmt.Errorf("fmindex.BuildFtab: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------- FPGA model

// fpgaProfile is the modeled (sim) side of a device run plus the host time
// the simulator took. Durations are modeled milliseconds.
type fpgaProfile struct {
	totalMs, setupMs, indexTransferMs, queryTransferMs float64
	kernelMs, reconfigMs, overlapMs                    float64
	kernelCycles, waveCycles, seedCycles, extendCycles uint64
	hostWall                                           time.Duration
	bramUtilization                                    float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (p *fpgaProfile) add(q fpga.Profile) {
	p.totalMs += ms(q.Total())
	p.setupMs += ms(q.Setup)
	p.indexTransferMs += ms(q.IndexTransfer)
	p.queryTransferMs += ms(q.QueryTransfer)
	p.kernelMs += ms(q.KernelTime)
	p.reconfigMs += ms(q.Reconfig)
	p.overlapMs += ms(q.Overlap)
	p.kernelCycles += q.KernelCycles
	p.waveCycles += q.WaveCycles
	p.hostWall += q.HostWallTime
}

type fpgaKernel struct {
	dev *fpga.Device
	k   *fpga.Kernel
}

func (x *index) program() (*fpgaKernel, error) {
	dev, err := fpga.NewDevice(fpga.Config{})
	if err != nil {
		return nil, fmt.Errorf("fpga.NewDevice: %w", err)
	}
	k, err := dev.Program(x.ix)
	if err != nil {
		return nil, fmt.Errorf("programming device: %w", err)
	}
	return &fpgaKernel{dev: dev, k: k}, nil
}

// mapExact is fpga.(*Kernel).MapReadsOpts; it returns the profile and the
// number of reads whose ranges or step counts differ from the host pass.
func (f *fpgaKernel) mapExact(tr *tracer, parent int, reads *readSet, want *exactResults) (*fpgaProfile, int, error) {
	id := tr.start(parent, "fpga.Kernel.MapReadsOpts")
	run, err := f.k.MapReadsOpts(reads.seqs, fpga.MapRunOptions{})
	tr.end(id, int64(reads.n()))
	if err != nil {
		return nil, 0, fmt.Errorf("Kernel.MapReadsOpts: %w", err)
	}
	if err := run.VerifyChecksum(); err != nil {
		return nil, 0, err
	}
	differ := 0
	for i, r := range run.Results {
		w := want.res[i]
		if r.Forward != w.Forward || r.Reverse != w.Reverse || r.Steps != w.Steps {
			differ++
		}
	}
	p := &fpgaProfile{}
	p.add(run.Profile)
	if bram := f.dev.Config().BRAMBytes; bram > 0 {
		p.bramUtilization = float64(f.k.IndexBytes()+f.k.FtabBytes()) / float64(bram)
	}
	tr.record(id, "fpga.model.total", run.Profile.Total(), int64(run.Profile.KernelCycles))
	return p, differ, nil
}

// ---------------------------------------------------------------- mem mapping

type memResults struct {
	res   []core.MemResult
	stats core.MemStats
}

func newMemResults(n int) *memResults { return &memResults{res: make([]core.MemResult, n)} }

func memOptions() core.MemOptions { return core.MemOptions{Paired: true} }

// mapMem is one pass of core.(*Index).MapReadsMemInto{Paired:true}. Traced
// chunks stay pair-aligned.
func (x *index) mapMem(tr *tracer, parent int, reads *readSet, workers int, dst *memResults) error {
	chunk := reads.n()
	if tr != nil {
		chunk = traceChunk
	}
	dst.stats = core.MemStats{}
	for lo := 0; lo < reads.n(); lo += chunk {
		hi := min(lo+chunk, reads.n())
		id := tr.start(parent, "core.MapReadsMemInto")
		st, err := x.ix.MapReadsMemInto(dst.res[lo:hi], reads.seqs[lo:hi], memOptions(), core.MapOptions{Workers: workers})
		tr.end(id, int64(hi-lo))
		if err != nil {
			return fmt.Errorf("MapReadsMemInto: %w", err)
		}
		dst.stats.Merge(st)
	}
	return nil
}

func (r *memResults) countsInto(tr *tracer) {
	tr.count("core.mem_reads", float64(r.stats.Reads))
	tr.count("core.mem_seeds", float64(r.stats.Seeds))
	tr.count("core.mem_extensions", float64(r.stats.Extensions))
	tr.count("core.mem_cells", float64(r.stats.Cells))
	tr.count("core.mem_rescues", float64(r.stats.Rescues))
}

type cigarOp struct {
	n  int
	op byte
}

func parseCIGAR(s string) ([]cigarOp, error) {
	var ops []cigarOp
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
			continue
		}
		if n == 0 {
			return nil, fmt.Errorf("bad CIGAR %q", s)
		}
		ops = append(ops, cigarOp{n, c})
		n = 0
	}
	if n != 0 || len(ops) == 0 {
		return nil, fmt.Errorf("bad CIGAR %q", s)
	}
	return ops, nil
}

// checkAlignment walks the CIGAR of a placed read over the reference: the
// operations must consume exactly the read and the reported reference span
// (refSpan < 0: not reported), and mismatches plus gap bases must equal NM.
func checkAlignment(ref, read dna.Seq, forward bool, pos int, cigar string, refSpan, nm int) string {
	ops, err := parseCIGAR(cigar)
	if err != nil {
		return err.Error()
	}
	q := read
	if !forward {
		q = read.ReverseComplement()
	}
	qi, ri, edits := 0, pos, 0
	for _, o := range ops {
		switch o.op {
		case 'M', '=', 'X':
			if qi+o.n > len(q) || ri+o.n > len(ref) || ri < 0 {
				return "alignment runs off the read or the reference"
			}
			for k := 0; k < o.n; k++ {
				if q[qi+k] != ref[ri+k] {
					edits++
				}
			}
			qi += o.n
			ri += o.n
		case 'I':
			qi += o.n
			edits += o.n
		case 'D':
			ri += o.n
			edits += o.n
		case 'S':
			qi += o.n
		default:
			return fmt.Sprintf("unexpected CIGAR op %q", o.op)
		}
	}
	switch {
	case qi != len(q):
		return fmt.Sprintf("CIGAR consumes %d read bases of %d", qi, len(q))
	case refSpan >= 0 && ri-pos != refSpan:
		return fmt.Sprintf("CIGAR spans %d reference bases, result says %d", ri-pos, refSpan)
	case edits != nm:
		return fmt.Sprintf("reference disagrees with the read at %d bases, NM says %d", edits, nm)
	}
	return ""
}

// checkMem verifies every placed read against the reference and counts the
// planted mates whose best alignment starts within 10 bp of the simulated
// origin.
func (x *index) checkMem(reads *readSet, got *memResults) (failed int, first string, correct, planted int) {
	for i, r := range got.res {
		if reads.origin[i] >= 0 {
			planted++
		}
		if !r.Mapped() {
			continue
		}
		b := r.Best
		if why := checkAlignment(x.ref.seq, reads.seqs[i], b.Forward, int(b.Pos), b.CIGAR, b.RefSpan, b.NM); why != "" {
			failed++
			if first == "" {
				first = fmt.Sprintf("read %s: %s", reads.ids[i], why)
			}
			continue
		}
		if o := reads.origin[i]; o >= 0 && abs(int(b.Pos)-o) <= 10 {
			correct++
		}
	}
	return failed, first, correct, planted
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// memRowFields are the placement fields the server's mem rows carry.
type memRowFields struct {
	Mapped bool
	Flag   int
	Pos    int // 1-based SAM POS
	MapQ   int
	CIGAR  string
	TLen   int
	Score  int
	NM     int
}

// memRows renders every result through the MemPairFromResults /
// MemPairRecords path the SAM output uses.
func (x *index) memRows(reads *readSet, got *memResults) []memRowFields {
	out := make([]memRowFields, 0, reads.n())
	for i := 0; i+1 < reads.n(); i += 2 {
		pr := core.MemPairFromResults(got.res[i], got.res[i+1], memOptions())
		r1, r2 := x.ix.MemPairRecords(reads.ids[i], reads.ids[i+1], reads.seqs[i], reads.seqs[i+1], pr)
		for k, rec := range [2]sam.Record{r1, r2} {
			f := memRowFields{Mapped: !rec.Unmapped(), Flag: int(rec.Flag)}
			if f.Mapped {
				best := got.res[i+k].Best
				f.Pos, f.MapQ, f.CIGAR, f.TLen = rec.Pos, int(rec.MapQ), rec.CIGAR, rec.TLen
				f.Score, f.NM = best.Score, best.NM
			}
			out = append(out, f)
		}
	}
	return out
}

// ---------------------------------------------------------------- served rows

func parsePositions(s string) ([]int32, error) {
	if s == "-" || s == "" {
		return nil, nil
	}
	var out []int32
	n, digits := 0, 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if digits == 0 {
				return nil, fmt.Errorf("bad position list %q", s)
			}
			out = append(out, int32(n))
			n, digits = 0, 0
			continue
		}
		if s[i] < '0' || s[i] > '9' {
			return nil, fmt.Errorf("bad position list %q", s)
		}
		n = n*10 + int(s[i]-'0')
		digits++
	}
	return out, nil
}

// checkExactRow verifies one exact row the server streamed for read i of the
// set against the reference it was generated from; correct reports whether a
// planted read shows its origin.
func checkExactRow(ref *reference, reads *readSet, i int, name string, fwCount int, fwPos string, rcCount int, rcPos string) (why string, correct bool) {
	if name != reads.ids[i] {
		return fmt.Sprintf("row is for %q, expected %q", name, reads.ids[i]), false
	}
	fw, err := parsePositions(fwPos)
	if err != nil {
		return err.Error(), false
	}
	rc, err := parsePositions(rcPos)
	if err != nil {
		return err.Error(), false
	}
	if len(fw) != fwCount || len(rc) != rcCount {
		return "position lists do not match the counts", false
	}
	read := reads.seqs[i]
	for _, p := range fw {
		if !matchesAt(ref.seq, read, int(p)) {
			return fmt.Sprintf("forward position %d does not spell the read", p), false
		}
	}
	if len(rc) > 0 {
		comp := read.ReverseComplement()
		for _, p := range rc {
			if !matchesAt(ref.seq, comp, int(p)) {
				return fmt.Sprintf("reverse position %d does not spell the read's complement", p), false
			}
		}
	}
	if o := reads.origin[i]; o >= 0 {
		ps := fw
		if reads.rev[i] {
			ps = rc
		}
		if !containsPos(ps, o) {
			return "planted read does not report its origin", false
		}
		return "", true
	}
	return "", false
}

// checkMemRow verifies one mem row the server streamed for read i: the
// alignment must agree with the reference, and a planted mate counts as
// correct when it starts within 10 bp of its origin.
func checkMemRow(ref *reference, reads *readSet, i int, name string, row memRowFields) (why string, correct bool) {
	if name != reads.ids[i] {
		return fmt.Sprintf("row is for %q, expected %q", name, reads.ids[i]), false
	}
	if !row.Mapped {
		return "", false
	}
	forward := row.Flag&0x10 == 0
	if why := checkAlignment(ref.seq, reads.seqs[i], forward, row.Pos-1, row.CIGAR, -1, row.NM); why != "" {
		return why, false
	}
	o := reads.origin[i]
	return "", o >= 0 && abs(row.Pos-1-o) <= 10
}

// smemLadder times BiIndex.SMEMsAppend on a bidirectional index the harness
// builds itself, on both orientations of every read as the pipeline does.
func (x *index) smemLadder(tr *tracer, parent int, reads *readSet) error {
	text := make([]uint8, x.ref.bases())
	for i, b := range x.ref.seq {
		text[i] = uint8(b)
	}
	id := tr.start(parent, "fmindex.NewBiIndex")
	bi, err := fmindex.NewBiIndex(text, dna.AlphabetSize, x.ix.Config().RRR)
	tr.end(id, int64(len(text)))
	if err != nil {
		return fmt.Errorf("NewBiIndex: %w", err)
	}
	fw, rc := patterns(reads)
	minSeed := 19 // core.MemOptions' default MinSeedLen
	var smems []fmindex.SMEM
	var steps int64
	for round := 0; round < ladderRounds; round++ {
		steps = 0
		id = tr.start(parent, "fmindex.SMEMsAppend")
		for i := range fw {
			for _, p := range [][]uint8{fw[i], rc[i]} {
				var s int
				smems, s, err = bi.SMEMsAppend(smems[:0], p, minSeed)
				if err != nil {
					return fmt.Errorf("SMEMsAppend: %w", err)
				}
				steps += int64(s)
			}
		}
		tr.end(id, int64(len(fw)))
	}
	tr.count("fmindex.smem_steps", float64(steps))
	return nil
}

// extendLadder times (*align.Extender).ExtendSeed on (read, reference, seed)
// triples rebuilt from the workload's results: for every placed read the
// longest exact run on the reported diagonal is the seed.
func (x *index) extendLadder(tr *tracer, parent int, reads *readSet, got *memResults) error {
	type triple struct {
		query            dna.Seq
		qPos, rPos, sLen int
	}
	var triples []triple
	ref := x.ref.seq
	for i, r := range got.res {
		if !r.Mapped() {
			continue
		}
		ops, err := parseCIGAR(r.Best.CIGAR)
		if err != nil {
			return err
		}
		q := reads.seqs[i]
		if !r.Best.Forward {
			q = q.ReverseComplement()
		}
		qi, ri := 0, int(r.Best.Pos)
		best := triple{query: q}
		for _, o := range ops {
			switch o.op {
			case 'S', 'I':
				qi += o.n
			case 'D':
				ri += o.n
			default:
				run := 0
				for k := 0; k < o.n; k++ {
					if q[qi+k] == ref[ri+k] {
						run++
						if run > best.sLen {
							best.qPos, best.rPos, best.sLen = qi+k-run+1, ri+k-run+1, run
						}
					} else {
						run = 0
					}
				}
				qi += o.n
				ri += o.n
			}
		}
		if best.sLen >= 19 {
			triples = append(triples, best)
		}
	}
	if len(triples) == 0 {
		return fmt.Errorf("no extension triples could be rebuilt from %d results", len(got.res))
	}
	ext := &align.Extender{BandStart: core.DefaultBandStart}
	band := 16 // core.MemOptions' default Band
	for round := 0; round < ladderRounds; round++ {
		var cells int64
		id := tr.start(parent, "align.ExtendSeed")
		for _, t := range triples {
			res, err := ext.ExtendSeed(t.query, ref, t.qPos, t.rPos, t.sLen, band, align.DefaultScoring)
			if err != nil {
				return fmt.Errorf("ExtendSeed: %w", err)
			}
			cells += int64(res.Cells)
			ext.Reset()
		}
		tr.end(id, cells)
	}
	tr.count("align.extensions", float64(len(triples)))
	return nil
}

// memSession runs fpga.(*Farm).NewMemSession over the reads in the given
// number of batches and counts reads whose result differs from the host's.
func (x *index) memSession(tr *tracer, parent int, reads *readSet, batches int, want *memResults) (*fpgaProfile, int, error) {
	dev, err := fpga.NewDevice(fpga.Config{})
	if err != nil {
		return nil, 0, fmt.Errorf("fpga.NewDevice: %w", err)
	}
	farm, err := fpga.NewFarm([]*fpga.Device{dev}, x.ix)
	if err != nil {
		return nil, 0, fmt.Errorf("fpga.NewFarm: %w", err)
	}
	sess := farm.NewMemSession(memOptions(), fpga.MapRunOptions{})
	per := (reads.n()/2 + batches - 1) / batches * 2 // whole pairs per batch
	p := &fpgaProfile{}
	differ := 0
	for lo := 0; lo < reads.n(); lo += per {
		hi := min(lo+per, reads.n())
		id := tr.start(parent, "fpga.MemSession.Map")
		run, err := sess.Map(reads.seqs[lo:hi])
		tr.end(id, int64(hi-lo))
		if err != nil {
			return nil, 0, fmt.Errorf("MemSession.Map: %w", err)
		}
		if err := run.VerifyChecksum(); err != nil {
			return nil, 0, err
		}
		for i, r := range run.Results {
			if r != want.res[lo+i] {
				differ++
			}
		}
		p.add(run.Profile)
		p.seedCycles += run.SeedCycles
		p.extendCycles += run.ExtendCycles
		tr.record(id, "fpga.model.total", run.Profile.Total(), int64(run.Profile.KernelCycles))
	}
	return p, differ, nil
}

// ---------------------------------------------------------------- ingest

// ingestLadder times the fastx reader and qc.Ingest (with an active policy)
// over one job's FASTQ, in process.
func ingestLadder(tr *tracer, parent int, fastq []byte) error {
	id := tr.start(parent, "fastx.Reader.Read")
	rd, err := fastx.NewReader(bytes.NewReader(fastq))
	if err != nil {
		return fmt.Errorf("fastx.NewReader: %w", err)
	}
	records := 0
	for {
		_, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("fastx read: %w", err)
		}
		records++
	}
	tr.end(id, int64(len(fastq)))
	id = tr.start(parent, "qc.Ingest")
	res, err := qc.Ingest(bytes.NewReader(fastq), qc.Policy{MinLen: 30, MaxEE: 50})
	tr.end(id, int64(records))
	if err != nil {
		return fmt.Errorf("qc.Ingest: %w", err)
	}
	if len(res.Seqs) != records {
		return fmt.Errorf("qc gate passed %d of %d clean reads", len(res.Seqs), records)
	}
	return nil
}
