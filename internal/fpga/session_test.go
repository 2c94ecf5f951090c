package fpga

import (
	"reflect"
	"testing"

	"bwaver/internal/core"
	"bwaver/internal/dna"
)

// batchesOf splits reads into pair-aligned batches of size n.
func batchesOf(reads []dna.Seq, n int) [][]dna.Seq {
	var out [][]dna.Seq
	for off := 0; off < len(reads); off += n {
		out = append(out, reads[off:min(off+n, len(reads))])
	}
	return out
}

func TestMemSessionSingleReconfig(t *testing.T) {
	ix, reads := memBatch(t, 30000, 30)
	devices := make([]*Device, 2)
	for i := range devices {
		devices[i], _ = NewDevice(Config{})
	}
	farm, err := NewFarmOpts(devices, ix, FarmOptions{VerifyStride: 8})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.MemOptions{Paired: true, MinInsert: 100, MaxInsert: 500}
	session := farm.NewMemSession(opts, MapRunOptions{})

	host, _, err := ix.MapReadsMem(reads, opts)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for bi, batch := range batchesOf(reads, 20) {
		run, err := session.Map(batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := run.VerifyChecksum(); err != nil {
			t.Fatal(err)
		}
		// Session results are bit-identical to the sequential host pipeline.
		for i := range run.Results {
			if run.Results[i] != host[off+i] {
				t.Fatalf("batch %d read %d diverges", bi, i)
			}
		}
		off += len(batch)
		if bi == 0 {
			if run.Profile.Reconfig != defaultReconfigTime {
				t.Errorf("batch 0 reconfig charge %v, want %v", run.Profile.Reconfig, defaultReconfigTime)
			}
			if run.Profile.Overlap != 0 {
				t.Errorf("batch 0 charged overlap %v before any extension to hide behind", run.Profile.Overlap)
			}
		} else {
			if run.Profile.Reconfig != 0 {
				t.Errorf("batch %d charged reconfig %v under the session schedule", bi, run.Profile.Reconfig)
			}
			// Host seeding of this batch hides behind the previous batch's
			// modeled extension.
			if run.Profile.Overlap <= 0 {
				t.Errorf("batch %d credits no seeding overlap", bi)
			}
			if seedTime := devices[0].cyclesToTime(run.SeedCycles); run.Profile.Overlap > seedTime {
				t.Errorf("batch %d overlap %v exceeds its seed time %v", bi, run.Profile.Overlap, seedTime)
			}
		}
		if run.SeedCycles == 0 || run.ExtendCycles == 0 {
			t.Errorf("batch %d per-pass split empty: seed %d extend %d", bi, run.SeedCycles, run.ExtendCycles)
		}
		// Per-pass maxima are taken shard-wise (the slowest card bounds each
		// pass), so the split brackets the aggregate kernel charge rather
		// than summing to it exactly.
		if run.SeedCycles > run.Profile.KernelCycles || run.ExtendCycles > run.Profile.KernelCycles ||
			run.SeedCycles+run.ExtendCycles < run.Profile.KernelCycles {
			t.Errorf("batch %d pass split %d+%d inconsistent with kernel cycles %d",
				bi, run.SeedCycles, run.ExtendCycles, run.Profile.KernelCycles)
		}
	}
	if session.Reconfigs() != 1 {
		t.Errorf("session charged %d reconfigs over %d batches, want 1", session.Reconfigs(), session.Batches())
	}
	if session.Batches() != 3 {
		t.Errorf("session mapped %d batches, want 3", session.Batches())
	}
}

func TestMemSessionUnderFaults(t *testing.T) {
	ix, reads := memBatch(t, 20000, 24)
	opts := core.MemOptions{Paired: true, MinInsert: 100, MaxInsert: 500}
	host, _, err := ix.MapReadsMem(reads, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, plan string
		stride     int
		// corrupts: the plan flips result bits, which the batch checksum
		// alone (no sampled cross-check) must catch.
		corrupts bool
	}{
		{"transfer-and-kernel", "seed=17,query=0.15,kernel=0.1", 4, false},
		{"corrupt", "seed=17,corrupt=0.3", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := ParseFaultPlan(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			devices := make([]*Device, 3)
			for i := range devices {
				devices[i], _ = NewDevice(Config{})
				devices[i].EnableFaults(plan, i)
			}
			// A generous breaker keeps cards available across the session's
			// many batches — this test is about the schedule, not the breaker.
			farm, err := NewFarmOpts(devices, ix, FarmOptions{VerifyStride: tc.stride, BreakerThreshold: 100})
			if err != nil {
				t.Fatal(err)
			}
			session := farm.NewMemSession(opts, MapRunOptions{})
			// Retries and shard redistribution must not disturb the
			// schedule's correctness: every batch still checksums and matches
			// the host bit for bit, and the session still charges a single
			// reconfiguration.
			off := 0
			for _, batch := range batchesOf(reads, 16) {
				run, err := session.Map(batch)
				if err != nil {
					t.Fatal(err)
				}
				if err := run.VerifyChecksum(); err != nil {
					t.Fatal(err)
				}
				for i := range run.Results {
					if run.Results[i] != host[off+i] {
						t.Fatalf("read %d diverges after faults", off+i)
					}
				}
				off += len(batch)
			}
			if session.Reconfigs() != 1 {
				t.Errorf("session charged %d reconfigs, want 1", session.Reconfigs())
			}
			if !tc.corrupts {
				return
			}
			var injected uint64
			for _, d := range devices {
				injected += d.FaultCounts()["corrupt"]
			}
			stats := farm.Stats()
			if injected == 0 || stats.ChecksumMismatches != injected || stats.Retries == 0 {
				t.Errorf("%d corrupted mem batches injected; the host rejected %d and retried %d times",
					injected, stats.ChecksumMismatches, stats.Retries)
			}
		})
	}
}

// TestMemSessionCyclesPinned holds a mem session's modeled kernel cycles to
// the figure the SMEM search produced when every extension ranked: the
// search's step count drives pass 1, so a faster host search must leave the
// model where it was.
func TestMemSessionCyclesPinned(t *testing.T) {
	ix, reads := memBatch(t, 200000, 120)
	dev, err := NewDevice(Config{})
	if err != nil {
		t.Fatal(err)
	}
	farm, err := NewFarm([]*Device{dev}, ix)
	if err != nil {
		t.Fatal(err)
	}
	session := farm.NewMemSession(core.MemOptions{Paired: true}, MapRunOptions{})
	var kernel, seed uint64
	for _, batch := range batchesOf(reads, 80) {
		run, err := session.Map(batch)
		if err != nil {
			t.Fatal(err)
		}
		kernel += run.Profile.KernelCycles
		seed += run.SeedCycles
	}
	const wantKernel, wantSeed = 156399, 19263
	if kernel != wantKernel || seed != wantSeed {
		t.Errorf("session charged %d kernel cycles, %d of them seeding; want %d and %d", kernel, seed, wantKernel, wantSeed)
	}
}

// Three batches through one session on a one-card farm are three kernel runs
// with the residency the session implies — the index transferred with the
// first batch only — and the workload's own schedule: same results,
// checksums, and per-batch total, kernel cycles, index transfer and
// reconfiguration.
func TestSessionMatchesKernelRuns(t *testing.T) {
	ix := buildIndex(t, 20000)
	reads := simReads(t, ix, 300, 40, 0.6)
	mix, mreads := memBatch(t, 30000, 30)
	t.Run("exact", func(t *testing.T) {
		sessionMatchesKernelRuns(t, ix, reads, 100, func() Workload[core.MapResult] { return Exact(false) })
	})
	t.Run("exact-located", func(t *testing.T) {
		sessionMatchesKernelRuns(t, ix, reads, 100, func() Workload[core.MapResult] { return Exact(true) })
	})
	t.Run("two-pass", func(t *testing.T) {
		sessionMatchesKernelRuns(t, ix, reads, 100, func() Workload[core.ApproxResult] { return TwoPass(1, false) })
	})
	t.Run("mem-paired", func(t *testing.T) {
		sessionMatchesKernelRuns(t, mix, mreads, 20, func() Workload[core.MemResult] { return Mem(core.MemOptions{Paired: true}) })
	})
}

func sessionMatchesKernelRuns[R any](t *testing.T, ix *core.Index, reads []dna.Seq, size int, work func() Workload[R]) {
	card, _ := NewDevice(Config{})
	farm, err := NewFarm([]*Device{card}, ix)
	if err != nil {
		t.Fatal(err)
	}
	dev, _ := NewDevice(Config{})
	k, err := dev.Program(ix)
	if err != nil {
		t.Fatal(err)
	}
	session, alone := NewSession(farm, work(), MapRunOptions{}), work()
	batches := batchesOf(reads, size)
	if len(batches) != 3 {
		t.Fatalf("%d batches, want 3", len(batches))
	}
	for bi, batch := range batches {
		got, err := session.Map(batch)
		if err != nil {
			t.Fatal(err)
		}
		want, err := runKernel(k, alone, batch, MapRunOptions{IndexResident: bi > 0})
		if err != nil {
			t.Fatal(err)
		}
		alone.mapped(farm, want)
		if !reflect.DeepEqual(got.Results, want.Results) || got.Checksum != want.Checksum {
			t.Errorf("batch %d: session results differ from the kernel run's", bi)
		}
		g, w := got.Profile, want.Profile
		if g.Total() != w.Total() || g.KernelCycles != w.KernelCycles || g.IndexTransfer != w.IndexTransfer || g.Reconfig != w.Reconfig {
			t.Errorf("batch %d: session charged total %v, %d cycles, index %v, reconfig %v; kernel run %v, %d, %v, %v",
				bi, g.Total(), g.KernelCycles, g.IndexTransfer, g.Reconfig, w.Total(), w.KernelCycles, w.IndexTransfer, w.Reconfig)
		}
		if (g.IndexTransfer > 0) != (bi == 0) {
			t.Errorf("batch %d charged index transfer %v", bi, g.IndexTransfer)
		}
	}
}
