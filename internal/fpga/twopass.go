package fpga

import (
	"fmt"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/dna"
)

// Two-pass approximate mapping, modeled on the runtime-reconfigurable
// architecture of Arram et al. that the paper's related work describes
// (§II: "the reads are first processed by the exact alignment module. Then,
// the FPGA fabric is reconfigured and any unaligned read is processed by
// the slower one- and two-mismatches alignment modules"). Pass 1 runs the
// exact kernel over every read; reads that fail both orientations are
// re-queued to a k-mismatch kernel after a fabric reconfiguration, whose
// fixed cost is charged once.

// DefaultReconfigTime is the modeled partial-reconfiguration cost of
// swapping the exact kernel for the mismatch kernel.
const DefaultReconfigTime = 500 * time.Millisecond

// TwoPassResult is a completed two-pass run.
type TwoPassResult struct {
	// Exact holds pass-1 results for every read, by input position.
	Exact []core.MapResult
	// Approx holds pass-2 results for the reads pass 1 failed to map,
	// keyed by input position. Reads mapped exactly do not appear.
	Approx map[int]core.ApproxResult
	// Rescued counts pass-2 reads that found an approximate match.
	Rescued int
	// Profile covers both passes plus the reconfiguration.
	Profile Profile
	// Checksum is the pass-1 batch checksum (see RunResult.Checksum).
	Checksum uint64
}

// VerifyChecksum recomputes the pass-1 batch checksum over the received
// exact results and returns ErrResultCorrupt on mismatch.
func (t *TwoPassResult) VerifyChecksum() error { return verifyChecksum(t) }

func (t *TwoPassResult) head() (*Profile, *uint64) { return &t.Profile, &t.Checksum }
func (t *TwoPassResult) sum() uint64               { return ChecksumResults(t.Exact) }
func (t *TwoPassResult) corrupt(i int, bit uint64) { t.Exact[i].Forward.Start ^= 1 << bit }

func (t *TwoPassResult) gather(lo int, shard *TwoPassResult) {
	copy(t.Exact[lo:], shard.Exact)
	for i, res := range shard.Approx {
		t.Approx[lo+i] = res
	}
	t.Rescued += shard.Rescued
}

// twoPassWork is the two-pass flow as a device workload: exact matching for
// the run proper, then the mismatch kernel over what it left unaligned.
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
	return &TwoPassResult{Exact: make([]core.MapResult, n), Approx: map[int]core.ApproxResult{}}
}

func (twoPassWork) execute(k *Kernel, t *TwoPassResult, reads []dna.Seq, opts MapRunOptions) (cost, error) {
	return k.searchCost(t.Exact, reads, opts)
}

func (twoPassWork) verify(ix *core.Index, reads []dna.Seq, t *TwoPassResult, stride int) error {
	return core.VerifySampled(ix, reads, t.Exact, stride)
}

// late is pass 2: the fabric is reconfigured, one fixed charge, and the reads
// pass 1 failed to map on either orientation are re-streamed to the mismatch
// kernel, so it rolls the same injectable stages as a fresh run. Same
// pipeline model; the branching search simply executes more steps per query.
// Progress counts pass-1 queries; pass 2 re-processes its subset under the
// same total.
func (w twoPassWork) late(k *Kernel, t *TwoPassResult, reads []dna.Seq, opts MapRunOptions) (cost, error) {
	var unaligned []int
	var subset []dna.Seq
	for i, res := range t.Exact {
		if !res.Mapped() {
			unaligned = append(unaligned, i)
			subset = append(subset, reads[i])
		}
	}
	if len(unaligned) == 0 {
		return cost{}, nil
	}
	if err := k.rollPass(false); err != nil {
		return cost{}, err
	}
	results, err := k.ix.MapReadsApprox(subset, w.maxMismatches, core.MapOptions{Context: opts.Context})
	if err != nil {
		return cost{}, err
	}
	steps := 0
	for n, res := range results {
		t.Approx[unaligned[n]] = res
		if res.Mapped() {
			t.Rescued++
		}
		steps += res.Steps
	}
	if err := k.dev.inj.at(StageResultTransfer); err != nil {
		return cost{}, err
	}
	return cost{
		cycles:        k.pipelineCycles(steps, len(unaligned)),
		queryRecords:  len(unaligned),
		resultRecords: len(unaligned),
		reconfig:      DefaultReconfigTime,
	}, nil
}

// MapReadsTwoPassOpts runs the exact kernel, reconfigures, and retries the
// unaligned reads with up to maxMismatches substitutions. maxMismatches
// must be at least 1 (use MapReadsOpts for exact-only runs).
func (k *Kernel) MapReadsTwoPassOpts(reads []dna.Seq, maxMismatches int, opts MapRunOptions) (*TwoPassResult, error) {
	return runKernel(k, twoPassWork{maxMismatches}, reads, opts)
}

// MapReadsTwoPassOpts is the farm's two-pass approximate flow: every card
// runs its own exact + reconfigured mismatch pass over its shard.
// Reconfiguration happens on every card in parallel, so the profile charges
// the slowest.
func (f *Farm) MapReadsTwoPassOpts(reads []dna.Seq, maxMismatches int, opts MapRunOptions) (*TwoPassResult, error) {
	return runFarm(f, twoPassWork{maxMismatches}, reads, opts)
}
