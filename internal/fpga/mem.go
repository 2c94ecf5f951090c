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

// MemRunResult is a completed seed-and-extend run.
type MemRunResult struct {
	// Results holds one entry per input read, by input position.
	Results []core.MemResult
	// Stats aggregates the batch's pipeline counters.
	Stats core.MemStats
	// Profile covers both passes plus the reconfiguration.
	Profile Profile
	// SeedCycles and ExtendCycles split Profile.KernelCycles into the two
	// passes; SeedTime and ExtendTime are their modeled durations. The
	// session scheduler's overlap model needs the split: host-side seeding
	// of the next batch hides behind the device extension of this one.
	SeedCycles, ExtendCycles uint64
	SeedTime, ExtendTime     time.Duration
	// Checksum is the batch checksum the device computed before the result
	// transfer (see ChecksumMemResults).
	Checksum uint64
}

// VerifyChecksum recomputes the batch checksum over the received results and
// returns ErrResultCorrupt on mismatch.
func (r *MemRunResult) VerifyChecksum() error { return verifyChecksum(r) }

func (r *MemRunResult) head() (*Profile, *uint64) { return &r.Profile, &r.Checksum }
func (r *MemRunResult) sum() uint64               { return ChecksumMemResults(r.Results) }
func (r *MemRunResult) corrupt(i int, bit uint64) { r.Results[i].Best.Pos ^= 1 << bit }

// gather aggregates the per-pass split like KernelTime: shards run in
// parallel across cards, so the slowest shard's pass bounds the batch.
func (r *MemRunResult) gather(lo int, shard *MemRunResult) {
	copy(r.Results[lo:], shard.Results)
	r.Stats.Merge(shard.Stats)
	r.SeedCycles = max(r.SeedCycles, shard.SeedCycles)
	r.ExtendCycles = max(r.ExtendCycles, shard.ExtendCycles)
	r.SeedTime = max(r.SeedTime, shard.SeedTime)
	r.ExtendTime = max(r.ExtendTime, shard.ExtendTime)
}

// ChecksumMemResults folds the deterministic fields of a mem batch into the
// same FNV-1a construction ChecksumResults uses for exact batches. CIGAR
// bytes participate so a corrupted traceback is as detectable as a corrupted
// position.
func ChecksumMemResults(results []core.MemResult) uint64 {
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
type memWork struct {
	opts core.MemOptions
	// reconfigured marks the fabric as already holding the pass-2 alignment
	// array from an earlier batch of the same MemSession.
	reconfigured bool
}

func (w memWork) pairAligned() bool { return w.opts.Paired }

// admit needs both directions' structures resident for the seeding pass and
// gates them on BRAM like Program gates the exact index.
func (memWork) admit(k *Kernel) (time.Duration, error) {
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

func (memWork) newRun(n int) *MemRunResult { return &MemRunResult{Results: make([]core.MemResult, n)} }

func (w memWork) verify(ix *core.Index, reads []dna.Seq, run *MemRunResult, stride int) error {
	return verifySampledMem(ix, reads, run.Results, w.opts, stride)
}

func (w memWork) execute(k *Kernel, run *MemRunResult, reads []dna.Seq, opts MapRunOptions) (passes Profile, err error) {
	if run.Stats, err = k.ix.MapReadsMemInto(run.Results, reads, w.opts, opts.host()); err != nil {
		return Profile{}, err
	}
	// Pass-1 cycles: SMEM extension ops through the rank pipelines, same
	// per-step model as the exact kernel. Pass-2 cycles: the array retires
	// one DP cell per PE per cycle, after a fixed overhead per extension job.
	cfg := k.dev.cfg
	cellCycles := uint64(run.Stats.Cells) + uint64(run.Stats.Extensions)*uint64(cfg.QueryOverheadCycles)
	run.SeedCycles = k.pipelineCycles(run.Stats.SeedSteps, len(reads))
	run.ExtendCycles = uint64(cfg.PipelineFillCycles) + cellCycles/uint64(cfg.PEs)

	// Reconfiguration swaps the search pipelines for the systolic alignment
	// array; pass 2 re-rolls the stream/kernel fault stages like a fresh run.
	if err := k.rollPass(false); err != nil {
		return Profile{}, err
	}
	run.SeedTime = k.dev.cyclesToTime(run.SeedCycles)
	run.ExtendTime = k.dev.cyclesToTime(run.ExtendCycles)

	// Pass 1 streams the reads; pass 2 streams one extension-job record per
	// surviving chain. The two are priced as one stream and one kernel span.
	passes = k.pass(run.SeedCycles+run.ExtendCycles, len(reads)+run.Stats.Extensions, len(reads))
	// A session run on an already-reconfigured fabric (batch two onward of
	// the two-pass schedule) charges no reconfiguration: the alignment array
	// stays programmed and the host takes over seeding.
	if !w.reconfigured {
		passes.Reconfig = DefaultReconfigTime
	}
	return passes, nil
}

// MapReadsMemOpts maps a batch through seed → chain → extend on one card.
func (k *Kernel) MapReadsMemOpts(reads []dna.Seq, memOpts core.MemOptions, opts MapRunOptions) (*MemRunResult, error) {
	return runKernel(k, memWork{opts: memOpts}, reads, opts)
}

// MapReadsMemOpts stripes a seed-and-extend batch across the healthy cards.
// Paired batches stripe on pair boundaries so no mate pair splits across
// cards (pairing context — rescue, proper-pair calls — is shard-local).
func (f *Farm) MapReadsMemOpts(reads []dna.Seq, memOpts core.MemOptions, opts MapRunOptions) (*MemRunResult, error) {
	return runFarm(f, memWork{opts: memOpts}, reads, opts)
}

// verifySampledMem recomputes every stride-th result on the host and compares
// it to the device's, the mem counterpart of core.VerifySampled. Paired
// batches verify whole pairs so rescue and proper-pair context match.
func verifySampledMem(ix *core.Index, reads []dna.Seq, results []core.MemResult, memOpts core.MemOptions, stride int) error {
	if stride <= 0 {
		return nil
	}
	unit := 1
	if memOpts.Paired {
		unit = 2
	}
	for i := 0; i < len(reads); i += stride {
		lo := i - i%unit // the pair the read belongs to
		hi := min(lo+unit, len(reads))
		want, _, err := ix.MapReadsMem(reads[lo:hi], memOpts)
		if err != nil {
			return err
		}
		if !slices.Equal(want, results[lo:hi]) {
			return fmt.Errorf("fpga: mem cross-check mismatch at read %d", lo)
		}
	}
	return nil
}
