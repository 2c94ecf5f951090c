package fpga

import (
	"sort"
	"testing"

	"bwaver/internal/dna"
)

// TestWaveCyclesAccounting pins the batch-homogeneity metric: WaveCycles
// bounds KernelCycles from above (a wave waits for its slowest lane, the
// balanced model averages), is order-sensitive where KernelCycles is not,
// and shrinks when the batch is sorted so similar-cost reads share a wave.
func TestWaveCyclesAccounting(t *testing.T) {
	ix := buildIndex(t, 50000)
	dev, err := NewDevice(Config{PEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	k, err := dev.Program(ix)
	if err != nil {
		t.Fatal(err)
	}

	// Half the batch maps end to end (many search steps), half is garbage
	// that empties the suffix-array range after a few steps — the maximal
	// lane-divergence mix. Interleave them so every wave holds both kinds.
	mixed := simReads(t, ix, 512, 40, 0.5)
	run, err := k.MapReadsOpts(mixed, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := run.Profile
	if p.WaveCycles == 0 {
		t.Fatal("WaveCycles not accounted")
	}
	if p.WaveCycles < p.KernelCycles {
		t.Errorf("WaveCycles %d below KernelCycles %d; max-per-wave cannot undercut the balanced model",
			p.WaveCycles, p.KernelCycles)
	}

	// Sort reads by their individual step cost (the oracle a quality-sort
	// approximates) and remap: the balanced model must not move, the wave
	// model must improve.
	steps := make([]int, len(mixed))
	for i, r := range mixed {
		steps[i] = ix.MapRead(r).Steps
	}
	sorted := make([]dna.Seq, len(mixed))
	order := make([]int, len(mixed))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return steps[order[a]] < steps[order[b]] })
	for i, idx := range order {
		sorted[i] = mixed[idx]
	}
	runSorted, err := k.MapReadsOpts(sorted, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if runSorted.Profile.KernelCycles != p.KernelCycles {
		t.Errorf("KernelCycles moved with read order: %d vs %d — the balanced model must be order-invariant",
			runSorted.Profile.KernelCycles, p.KernelCycles)
	}
	if runSorted.Profile.WaveCycles >= p.WaveCycles {
		t.Errorf("sorted batch WaveCycles %d not below mixed %d — homogeneity should reduce divergence",
			runSorted.Profile.WaveCycles, p.WaveCycles)
	}
	if runSorted.Profile.KernelTime != p.KernelTime {
		t.Errorf("KernelTime changed (%v vs %v): wave accounting must not alter modeled time",
			runSorted.Profile.KernelTime, p.KernelTime)
	}
}
