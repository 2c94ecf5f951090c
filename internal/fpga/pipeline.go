package fpga

import (
	"bwaver/internal/core"
	"bwaver/internal/dna"
)

// Exact pipeline simulation. A run prices a batch with a closed form —
// fill + sum(steps + overhead)/PEs — which ignores how queries actually
// distribute across processing elements. SimulateCycles steps the schedule
// explicitly: queries are dealt round-robin to the PEs, each PE is an
// in-order II=1 pipeline (the paper's dual forward/reverse search units
// read the BWT structure through their own BRAM ports, so there is no
// memory contention to model), and the batch finishes when the slowest PE
// drains. The closed form is exact for one PE and an upper-bounded
// approximation for several; TestSimulateCyclesMatchesModel pins the gap.

// SimulateCycles returns the exact kernel cycle count for reads under the
// device's configuration, plus each PE's individual busy cycles.
func (k *Kernel) SimulateCycles(reads []dna.Seq) (total uint64, perPE []uint64, err error) {
	if err := validateReads(reads); err != nil {
		return 0, nil, err
	}
	results := make([]core.MapResult, len(reads))
	if _, err := k.ix.MapReadsIntoFtab(results, reads, core.MapOptions{}, k.useFtab); err != nil {
		return 0, nil, err
	}
	cfg := k.dev.cfg
	perPE = make([]uint64, cfg.PEs)
	perStep := k.stepCycles()
	for i, res := range results {
		perPE[i%cfg.PEs] += uint64(res.Steps)*perStep + uint64(cfg.QueryOverheadCycles)
	}
	for _, c := range perPE {
		total = max(total, c)
	}
	total += uint64(cfg.PipelineFillCycles)
	return total, perPE, nil
}
