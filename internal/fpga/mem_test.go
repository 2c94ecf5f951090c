package fpga

import (
	"testing"

	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/readsim"
)

// memBatch builds an index plus an interleaved paired-end batch drawn from
// the same reference.
func memBatch(t *testing.T, refLen, pairs int) (*core.Index, []dna.Seq) {
	t.Helper()
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: refLen, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildIndex(ref, core.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := readsim.SimulatePairs(ref, readsim.PairConfig{
		Count: pairs, ReadLength: 70, InsertMean: 250, InsertStdDev: 25,
		MappingRatio: 0.9, ErrorRate: 0.01, Seed: 44,
	})
	if err != nil {
		t.Fatal(err)
	}
	var reads []dna.Seq
	for _, p := range sim {
		reads = append(reads, p.R1, p.R2)
	}
	return ix, reads
}

func TestKernelMemMatchesHost(t *testing.T) {
	ix, reads := memBatch(t, 30000, 40)
	d, _ := NewDevice(Config{})
	k, err := d.Program(ix)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.MemOptions{Paired: true, MinInsert: 100, MaxInsert: 500}
	run, err := runKernel(k, Mem(opts), reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.VerifyChecksum(); err != nil {
		t.Fatal(err)
	}
	host, hostStats, err := ix.MapReadsMem(reads, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Bit-identical backends: the kernel calls the same core entry points.
	for i := range host {
		if run.Results[i] != host[i] {
			t.Fatalf("read %d diverges: device %+v host %+v", i, run.Results[i], host[i])
		}
	}
	stats := memStats(run.Results)
	if stats.MappedReads != hostStats.MappedReads || stats.Cells != hostStats.Cells {
		t.Errorf("stats diverge: device %+v host %+v", stats, hostStats)
	}
	if stats.MappedReads < len(reads)/2 {
		t.Errorf("only %d/%d reads mapped", stats.MappedReads, len(reads))
	}
	// The two-pass profile must charge both passes and the reconfiguration.
	if run.Profile.Reconfig != DefaultReconfigTime {
		t.Errorf("reconfig charge %v", run.Profile.Reconfig)
	}
	if run.Profile.KernelCycles == 0 || run.Profile.KernelTime <= 0 {
		t.Errorf("kernel charge empty: %+v", run.Profile)
	}
	if run.Profile.IndexTransfer <= 0 {
		t.Error("bidirectional index transfer not charged")
	}
	found := false
	for _, e := range run.Profile.Events {
		if e.Name == "reconfigure" {
			found = true
		}
	}
	if !found {
		t.Error("no reconfigure event on the timeline")
	}
	// A resident index pays no transfer on reruns.
	rerun, err := runKernel(k, Mem(opts), reads, MapRunOptions{IndexResident: true})
	if err != nil {
		t.Fatal(err)
	}
	if rerun.Profile.IndexTransfer != 0 {
		t.Errorf("resident rerun charged index transfer %v", rerun.Profile.IndexTransfer)
	}
	if rerun.Checksum != run.Checksum {
		t.Error("rerun checksum diverges")
	}
}

func TestKernelMemRejectsOversizedRead(t *testing.T) {
	ix, _ := memBatch(t, 5000, 1)
	d, _ := NewDevice(Config{})
	k, err := d.Program(ix)
	if err != nil {
		t.Fatal(err)
	}
	long := make(dna.Seq, MaxQueryBases+1)
	if _, err := runKernel(k, Mem(core.MemOptions{}), []dna.Seq{long}, MapRunOptions{}); err == nil {
		t.Error("oversized read accepted")
	}
	run, err := runKernel(k, Mem(core.MemOptions{}), []dna.Seq{{}}, MapRunOptions{})
	if err != nil || run.Results[0].Mapped() || run.Results[0].SeedSteps != 0 {
		t.Errorf("empty read: %+v, %v; want a 0-step read that maps nowhere", run.Results, err)
	}
}

func TestFarmMemUnderFaults(t *testing.T) {
	ix, reads := memBatch(t, 20000, 30)
	plan, err := ParseFaultPlan("seed=11,query=0.3,kernel=0.2")
	if err != nil {
		t.Fatal(err)
	}
	devices := make([]*Device, 3)
	for i := range devices {
		devices[i], _ = NewDevice(Config{})
		devices[i].EnableFaults(plan, i)
	}
	farm, err := NewFarmOpts(devices, ix, FarmOptions{VerifyStride: 4})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.MemOptions{Paired: true, MinInsert: 100, MaxInsert: 500}
	run, err := runFarm(farm, Mem(opts), reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.VerifyChecksum(); err != nil {
		t.Fatal(err)
	}
	host, _, err := ix.MapReadsMem(reads, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Faults may retry or redistribute shards, but results must still be
	// bit-identical to the host — including pair-rescue outcomes, which
	// demand that no pair straddles a shard boundary.
	for i := range host {
		if run.Results[i] != host[i] {
			t.Fatalf("read %d diverges after faults: device %+v host %+v", i, run.Results[i], host[i])
		}
	}
	if memStats(run.Results).Reads != len(reads) {
		t.Errorf("stats cover %d reads, want %d", memStats(run.Results).Reads, len(reads))
	}
}

func TestFarmMemPairBoundaries(t *testing.T) {
	// With 3 devices and 10 reads the naive stripe boundaries (3, 6) would
	// split pairs; the pair-aligned boundaries must not.
	ix, reads := memBatch(t, 20000, 5)
	devices := make([]*Device, 3)
	for i := range devices {
		devices[i], _ = NewDevice(Config{})
	}
	farm, err := NewFarm(devices, ix)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.MemOptions{Paired: true, MinInsert: 100, MaxInsert: 500}
	run, err := runFarm(farm, Mem(opts), reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	host, _, err := ix.MapReadsMem(reads, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range host {
		if run.Results[i] != host[i] {
			t.Fatalf("read %d diverges across shard boundaries", i)
		}
	}
}

// memStats aggregates a batch's pipeline counters from its results.
func memStats(results []core.MemResult) core.MemStats {
	var s core.MemStats
	for _, r := range results {
		s.Add(r)
	}
	return s
}
