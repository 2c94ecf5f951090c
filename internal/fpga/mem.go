package fpga

import (
	"fmt"
	"slices"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/dna"
)

// Seed-and-extend ("mem") mapping on the modeled device: a two-pass design
// in the spirit of the runtime-reconfigurable architecture twopass.go models.
// Pass 1 runs SMEM seeding on the bidirectional FM-index pipelines (the same
// rank-step cost model as the exact kernel — an SMEM extension op is one
// backward-search step). The fabric then reconfigures from the search
// pipelines to a banded systolic alignment array, and pass 2 executes the
// chain extensions: the array retires one DP cell per PE per cycle, so the
// pass-2 charge is the pipeline fill plus total cells over PEs. Chaining and
// best-selection are host-side (cheap, irregular control flow), mirroring
// the host/device split the paper's hybrid pipeline uses for locate.
//
// The searches and extensions execute bit-for-bit through the same core
// entry points the CPU path calls, so both backends agree by construction;
// the kernel adds only the cycle charges, the fault surface, and the batch
// checksum.

// checksumMemResults folds the deterministic fields of a mem batch into the
// same FNV-1a construction checksumResults uses for exact batches. CIGAR
// bytes participate so a corrupted traceback is as detectable as a corrupted
// position.
func checksumMemResults(results []core.MemResult) uint64 {
	h := fnvOffset
	for _, r := range results {
		h.word(uint64(int64(r.Best.Pos)))
		h.word(uint64(int64(r.Best.RefSpan)))
		h.word(uint64(int64(r.Best.Score)))
		h.word(uint64(r.Best.MapQ))
		h.word(uint64(int64(r.Best.NM)))
		h.word(uint64(int64(r.SubScore)))
		var bits uint64
		if r.Best.Forward {
			bits |= 1
		}
		if r.Rescued {
			bits |= 2
		}
		h.word(bits)
		for _, b := range []byte(r.Best.CIGAR) {
			h.byte(b)
		}
	}
	return uint64(h)
}

// memWork is seed-and-extend mapping as a device workload. When opts.Paired
// is set, consecutive reads are mate pairs (an odd batch maps its last read
// single-end), exactly as core.MapReadsMem pairs them.
//
// The value also keeps the schedule of a Session's batches. A lone mem run
// reconfigures the fabric between its seeding pass and its extension pass,
// so a job streamed as B batches would charge B reconfigurations; a session
// charges one. Its first batch runs the classic schedule (device seeding →
// reconfigure → device extension), and from then on the fabric stays
// programmed as the alignment array while the host — whose succinct index
// answers the same rank queries — takes over seeding. That host seeding is
// double-buffered against the device: while the array extends batch N, the
// host seeds batch N+1, so each later batch's profile credits min(seed time,
// previous batch's extension time) as Overlap. The credit is shifted by one
// batch — batch N+1 carries it, because that is the batch whose seeding was
// hidden. Results are bit-identical to a lone run of the batch; only the
// reconfiguration charge and the overlap credit differ.
type memWork struct {
	opts core.MemOptions
	// reconfigured marks the fabric as already holding the pass-2 alignment
	// array from an earlier batch of the session.
	reconfigured bool
	// prevExtend is the modeled extension time of the session's last batch.
	prevExtend time.Duration
}

// Mem is seed-and-extend mapping as a device workload. A value serves one
// run: a session's schedule lives in it.
func Mem(opts core.MemOptions) Workload[core.MemResult] { return &memWork{opts: opts} }

func (w *memWork) pairAligned() bool                         { return w.opts.Paired }
func (*memWork) sum(results []core.MemResult) uint64         { return checksumMemResults(results) }
func (*memWork) corrupt(r []core.MemResult, i int, b uint64) { r[i].Best.Pos ^= 1 << b }

// admit needs both directions' structures resident for the seeding pass and
// gates them on BRAM like Program gates the exact index.
func (*memWork) admit(k *Kernel) (time.Duration, error) {
	if err := k.ix.EnsureMem(); err != nil {
		return 0, err
	}
	memBytes := k.ix.MemBytes()
	if memBytes > k.dev.cfg.BRAMBytes {
		return 0, fmt.Errorf("fpga: bidirectional index (%d bytes) exceeds device BRAM (%d bytes)",
			memBytes, k.dev.cfg.BRAMBytes)
	}
	return k.dev.transfer(memBytes), nil
}

// verify recomputes every stride-th result on the host and compares it to the
// device's, the mem counterpart of core.VerifySampled. Paired batches verify
// whole pairs so rescue and proper-pair context match.
func (w *memWork) verify(ix *core.Index, reads []dna.Seq, results []core.MemResult, stride int) error {
	if stride <= 0 {
		return nil
	}
	unit := 1
	if w.opts.Paired {
		unit = 2
	}
	for i := 0; i < len(reads); i += stride {
		lo := i - i%unit // the pair the read belongs to
		hi := min(lo+unit, len(reads))
		want, _, err := ix.MapReadsMem(reads[lo:hi], w.opts)
		if err != nil {
			return err
		}
		if !slices.Equal(want, results[lo:hi]) {
			return fmt.Errorf("fpga: mem cross-check mismatch at read %d", lo)
		}
	}
	return nil
}

func (w *memWork) execute(k *Kernel, run *Run[core.MemResult], reads []dna.Seq, opts MapRunOptions) (Profile, error) {
	stats, err := k.ix.MapReadsMemInto(run.Results, reads, w.opts, opts.host(false))
	if err != nil {
		return Profile{}, err
	}
	// Pass-1 cycles: SMEM extension ops through the rank pipelines, same
	// per-step model as the exact kernel. Pass-2 cycles: the array retires
	// one DP cell per PE per cycle, after a fixed overhead per extension job.
	cfg := k.dev.cfg
	cellCycles := uint64(stats.Cells) + uint64(stats.Extensions)*uint64(cfg.QueryOverheadCycles)
	run.SeedCycles = k.pipelineCycles(stats.SeedSteps, len(reads))
	run.ExtendCycles = uint64(cfg.PipelineFillCycles) + cellCycles/uint64(cfg.PEs)

	// Reconfiguration swaps the search pipelines for the systolic alignment
	// array; pass 2 re-rolls the stream/kernel fault stages like a fresh run.
	if err := k.rollPass(false); err != nil {
		return Profile{}, err
	}

	// Pass 1 streams the reads; pass 2 streams one extension-job record per
	// surviving chain. The two are priced as one stream and one kernel span.
	passes := k.pass(run.SeedCycles+run.ExtendCycles, len(reads)+stats.Extensions, len(reads))
	// A session batch on an already-reconfigured fabric charges no
	// reconfiguration: the alignment array stays programmed and the host
	// takes over seeding.
	if !w.reconfigured {
		passes.Reconfig = defaultReconfigTime
	}
	return passes, nil
}

// mapped moves the session's schedule on past a batch: the fabric now holds
// the alignment array, and a batch after the first credits the host seeding
// it hid behind the previous batch's extension; Profile.Total subtracts it.
func (w *memWork) mapped(f *Farm, run *Run[core.MemResult]) {
	dev := f.kernels[0].dev
	if credit := min(dev.cyclesToTime(run.SeedCycles), w.prevExtend); credit > 0 {
		run.Profile.Overlap += credit
	}
	w.reconfigured = true
	w.prevExtend = dev.cyclesToTime(run.ExtendCycles)
}
