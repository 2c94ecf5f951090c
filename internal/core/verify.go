package core

import (
	"fmt"

	"bwaver/internal/dna"
)

// VerifySampled re-maps every stride-th read on the CPU and compares the
// suffix-array ranges against the accelerator's results. It is the
// defense-in-depth behind the per-batch checksum: the checksum catches
// transfer corruption, the sampled cross-check catches a device computing
// confidently wrong answers. stride <= 0 disables the check; stride 1 checks
// every read.
//
// Only ranges are compared — located positions come from the host-side
// search that produced the ranges, rows through the suffix array and a
// result that finished on the text from the positions its search compared
// there — so they cannot diverge independently. MapRead ranks to the end and
// reports its range in the batch's form, so a kernel that finished a search
// on the text and one that ranked it agree.
func VerifySampled(ix *Index, reads []dna.Seq, results []MapResult, stride int) error {
	if stride <= 0 {
		return nil
	}
	if len(reads) != len(results) {
		return fmt.Errorf("core: sampled verify: %d reads but %d results", len(reads), len(results))
	}
	for i := 0; i < len(reads); i += stride {
		want := ix.MapRead(reads[i])
		got := results[i]
		if got.Forward != want.Forward || got.Reverse != want.Reverse {
			return fmt.Errorf("core: sampled verify: read %d: device ranges fw=%+v rv=%+v, CPU ranges fw=%+v rv=%+v",
				i, got.Forward, got.Reverse, want.Forward, want.Reverse)
		}
	}
	return nil
}
