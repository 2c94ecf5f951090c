package fpga

import (
	"fmt"
	"slices"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/fmindex"
)

// Two-pass approximate mapping, modeled on the runtime-reconfigurable
// architecture of Arram et al. that the paper's related work describes
// (§II: "the reads are first processed by the exact alignment module. Then,
// the FPGA fabric is reconfigured and any unaligned read is processed by
// the slower one- and two-mismatches alignment modules"). Pass 1 runs the
// exact kernel over every read; reads that fail both orientations are
// re-queued to a k-mismatch kernel after a fabric reconfiguration, whose
// fixed cost is charged once. That flow is core's k-mismatch workload — the
// CPU path runs the same one — so the device only prices it, and both passes
// sit under the batch checksum.

// DefaultReconfigTime is the modeled partial-reconfiguration cost of
// swapping the exact kernel for the mismatch kernel.
const DefaultReconfigTime = 500 * time.Millisecond

// TwoPassResult is a completed two-pass run.
type TwoPassResult struct {
	// Results holds, by input position, every read's pass-1 result and, for
	// the reads pass 1 failed to map, the strata pass 2 found.
	Results []core.ApproxResult
	// Rescued counts pass-2 reads that found an approximate match.
	Rescued int
	// Profile covers both passes plus the reconfiguration.
	Profile Profile
	// Checksum is the batch checksum over both passes (see
	// RunResult.Checksum).
	Checksum uint64
}

// VerifyChecksum recomputes the batch checksum over the received results of
// both passes and returns ErrResultCorrupt on mismatch.
func (t *TwoPassResult) VerifyChecksum() error { return verifyChecksum(t) }

func (t *TwoPassResult) head() (*Profile, *uint64) { return &t.Profile, &t.Checksum }

// sum extends ChecksumResults' fold over the pass-1 ranges with every pass-2
// stratum, so a read's answer is covered whichever pass gave it.
func (t *TwoPassResult) sum() uint64 {
	h := fnvOffset
	for _, r := range t.Results {
		h.rows(r.Exact.Forward)
		h.rows(r.Exact.Reverse)
		for _, set := range [][]fmindex.ApproxMatch{r.Forward, r.Reverse} {
			h.word(uint64(len(set)))
			for _, m := range set {
				h.rows(m.Range)
				h.word(uint64(int64(m.Mismatches)))
			}
		}
	}
	return uint64(h)
}

func (t *TwoPassResult) corrupt(i int, bit uint64) { t.Results[i].Exact.Forward.Start ^= 1 << bit }

func (t *TwoPassResult) gather(lo int, shard *TwoPassResult) {
	copy(t.Results[lo:], shard.Results)
	t.Rescued += shard.Rescued
}

// twoPassWork is the two-pass flow as a device workload: exact matching over
// every read, then the mismatch kernel over what it left unaligned.
type twoPassWork struct {
	maxMismatches int
}

func (twoPassWork) pairAligned() bool { return false }

func (w twoPassWork) admit(k *Kernel) (time.Duration, error) {
	if w.maxMismatches < 1 {
		return 0, fmt.Errorf("fpga: two-pass run needs a mismatch budget >= 1, got %d", w.maxMismatches)
	}
	return k.indexTransfer, nil
}

func (twoPassWork) newRun(n int) *TwoPassResult {
	return &TwoPassResult{Results: make([]core.ApproxResult, n)}
}

// execute prices pass 1 like an exact run. When it left reads unaligned the
// fabric is reconfigured, one fixed charge, and they are re-streamed to the
// mismatch kernel, so pass 2 rolls the same injectable stages as a fresh run.
// Same pipeline model; the branching search simply executes more steps per
// query.
func (w twoPassWork) execute(k *Kernel, t *TwoPassResult, reads []dna.Seq, opts MapRunOptions) (Profile, error) {
	if err := k.ix.MapReadsApproxFtab(t.Results, reads, w.maxMismatches, opts.host(), k.useFtab); err != nil {
		return Profile{}, err
	}
	passes := k.searchCost(len(reads), func(i int) int { return t.Results[i].Exact.Steps })
	unaligned, steps := 0, 0
	for _, res := range t.Results {
		if res.Exact.Mapped() {
			continue
		}
		unaligned++
		steps += res.Steps
		if res.Mapped() {
			t.Rescued++
		}
	}
	if unaligned == 0 {
		return passes, nil
	}
	if err := k.rollPass(false); err != nil {
		return Profile{}, err
	}
	passes.Merge(k.pass(k.pipelineCycles(steps, unaligned), unaligned, unaligned))
	passes.Reconfig = DefaultReconfigTime
	return passes, nil
}

// verify recomputes every stride-th read's two passes on the host. Only
// ranges and strata are compared, as in core.VerifySampled.
func (w twoPassWork) verify(ix *core.Index, reads []dna.Seq, t *TwoPassResult, stride int) error {
	if stride <= 0 {
		return nil
	}
	for i := 0; i < len(reads); i += stride {
		want, err := ix.MapReadApprox(reads[i], w.maxMismatches)
		if err != nil {
			return err
		}
		got := t.Results[i]
		if got.Exact.Forward != want.Exact.Forward || got.Exact.Reverse != want.Exact.Reverse ||
			!slices.Equal(got.Forward, want.Forward) || !slices.Equal(got.Reverse, want.Reverse) {
			return fmt.Errorf("fpga: two-pass cross-check mismatch at read %d", i)
		}
	}
	return nil
}

// MapReadsTwoPassOpts is the farm's two-pass approximate flow: every card
// runs its own exact + reconfigured mismatch pass over its shard.
// Reconfiguration happens on every card in parallel, so the profile charges
// the slowest.
func (f *Farm) MapReadsTwoPassOpts(reads []dna.Seq, maxMismatches int, opts MapRunOptions) (*TwoPassResult, error) {
	return runFarm(f, twoPassWork{maxMismatches}, reads, opts)
}
