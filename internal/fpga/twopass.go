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

// defaultReconfigTime is the modeled partial-reconfiguration cost of
// swapping the exact kernel for the mismatch kernel.
const defaultReconfigTime = 500 * time.Millisecond

// twoPassWork is the two-pass flow as a device workload: exact matching over
// every read, then the mismatch kernel over what it left unaligned.
type twoPassWork struct {
	maxMismatches int
	locate        bool
}

// TwoPass is the two-pass flow at a mismatch budget as a device workload.
// Its results hold, by input position, every read's pass-1 result and, for
// the reads pass 1 failed to map, the strata pass 2 found. It reconfigures
// the fabric in every batch that leaves reads unaligned; on a farm every
// card does so in parallel, so the profile charges the slowest. locate fills
// the exact hits' positions as Exact's does.
func TwoPass(maxMismatches int, locate bool) Workload[core.ApproxResult] {
	return twoPassWork{maxMismatches, locate}
}

func (twoPassWork) pairAligned() bool                     { return false }
func (twoPassWork) mapped(*Farm, *Run[core.ApproxResult]) {}

func (w twoPassWork) admit(k *Kernel) (time.Duration, error) {
	if w.maxMismatches < 1 {
		return 0, fmt.Errorf("fpga: two-pass run needs a mismatch budget >= 1, got %d", w.maxMismatches)
	}
	return k.indexTransfer, nil
}

// sum extends checksumResults' fold over the pass-1 ranges with every pass-2
// stratum, so a read's answer is covered whichever pass gave it.
func (twoPassWork) sum(results []core.ApproxResult) uint64 {
	h := fnvOffset
	for _, r := range results {
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

func (twoPassWork) corrupt(results []core.ApproxResult, i int, bit uint64) {
	results[i].Exact.Forward.Start ^= 1 << bit
}

// execute prices pass 1 like an exact run. When it left reads unaligned the
// fabric is reconfigured, one fixed charge, and they are re-streamed to the
// mismatch kernel, so pass 2 rolls the same injectable stages as a fresh run.
// Same pipeline model; the branching search simply executes more steps per
// query.
func (w twoPassWork) execute(k *Kernel, run *Run[core.ApproxResult], reads []dna.Seq, opts MapRunOptions) (Profile, error) {
	if err := k.ix.MapReadsApproxFtab(run.Results, reads, w.maxMismatches, opts.host(w.locate), k.useFtab); err != nil {
		return Profile{}, err
	}
	passes := k.searchCost(len(reads), func(i int) int { return run.Results[i].Exact.Steps })
	unaligned, steps := 0, 0
	for _, res := range run.Results {
		if !res.Exact.Mapped() {
			unaligned++
			steps += res.Steps
		}
	}
	if unaligned == 0 {
		return passes, nil
	}
	if err := k.rollPass(false); err != nil {
		return Profile{}, err
	}
	passes.Merge(k.pass(k.pipelineCycles(steps, unaligned), unaligned, unaligned))
	passes.Reconfig = defaultReconfigTime
	return passes, nil
}

// verify recomputes every stride-th read's two passes on the host. Only
// ranges and strata are compared, as in core.VerifySampled.
func (w twoPassWork) verify(ix *core.Index, reads []dna.Seq, results []core.ApproxResult, stride int) error {
	if stride <= 0 {
		return nil
	}
	for i := 0; i < len(reads); i += stride {
		want, err := ix.MapReadApprox(reads[i], w.maxMismatches)
		if err != nil {
			return err
		}
		got := results[i]
		if got.Exact.Forward != want.Exact.Forward || got.Exact.Reverse != want.Exact.Reverse ||
			!slices.Equal(got.Forward, want.Forward) || !slices.Equal(got.Reverse, want.Reverse) {
			return fmt.Errorf("fpga: two-pass cross-check mismatch at read %d", i)
		}
	}
	return nil
}
