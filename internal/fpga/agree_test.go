package fpga

import (
	"fmt"
	"reflect"
	"testing"

	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/fmindex"
	"bwaver/internal/readsim"
)

// TestApproxBackendsAgree: a k-mismatch job is one workload, so every way of
// running it returns the same ApproxResults — pass-1 ranges, pass-2 strata
// and pass-2 steps from all of them, pass-1 steps from every run in the same
// prefix-table mode. Before the workload was written once the CPU path
// searched every read with the budget and the device only the reads its
// exact pass missed; the test also counts the reads on which those two
// answers differ (the table in EXPERIMENTS.md "One answer per job").
func TestApproxBackendsAgree(t *testing.T) {
	ref, err := readsim.EColiLike(7, 0.05) // 232 kbp
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildIndex(ref, core.IndexConfig{FtabK: 8})
	if err != nil {
		t.Fatal(err)
	}
	const cut, planted, random = 400, 60, 40
	for _, length := range []int{8, 12, 16, 35} {
		// Reads cut from the reference, then more of them with one or two
		// planted substitutions, then random ones.
		sim, err := readsim.Simulate(ref, readsim.ReadsConfig{
			Count: cut + planted, Length: length, MappingRatio: 1, RevCompFraction: 0.5, Seed: int64(length),
		})
		if err != nil {
			t.Fatal(err)
		}
		reads := readsim.Seqs(sim)
		for i := cut; i < len(reads); i++ {
			reads[i] = reads[i].Clone()
			reads[i][i%length] = (reads[i][i%length] + 1) % 4
			if i%2 == 1 {
				reads[i][(i+3)%length] = (reads[i][(i+3)%length] + 2) % 4
			}
		}
		noise, err := readsim.Simulate(ref, readsim.ReadsConfig{Count: random, Length: length, Seed: int64(length)})
		if err != nil {
			t.Fatal(err)
		}
		reads = append(reads, readsim.Seqs(noise)...)
		for _, k := range []int{1, 2} {
			t.Run(fmt.Sprintf("len%d/k%d", length, k), func(t *testing.T) {
				want, err := ix.MapReadsApprox(reads, k, core.MapOptions{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				agree := func(name string, got []core.ApproxResult, samePass1Steps bool) {
					t.Helper()
					if len(got) != len(want) {
						t.Fatalf("%s: %d results for %d reads", name, len(got), len(want))
					}
					for i := range want {
						g, w := got[i], want[i]
						if !samePass1Steps {
							g.Exact.Steps = w.Exact.Steps
						}
						if !reflect.DeepEqual(g, w) {
							t.Fatalf("%s: read %d (%s): %+v, one-worker CPU %+v", name, i, reads[i], got[i], w)
						}
					}
				}
				parallel, err := ix.MapReadsApprox(reads, k, core.MapOptions{Workers: 4})
				if err != nil {
					t.Fatal(err)
				}
				agree("cpu workers=4", parallel, true)

				dev, _ := NewDevice(Config{})
				kernel, err := dev.Program(ix)
				if err != nil || !kernel.UsesFtab() {
					t.Fatalf("table kernel: %v", err)
				}
				run, err := runKernel(kernel, twoPassWork{k}, reads, MapRunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				agree("kernel", run.Results, true)

				small, _ := NewDevice(Config{BRAMBytes: ix.DeviceStructureBytes() + ix.FtabBytes()/2})
				degraded, err := small.Program(ix)
				if err != nil || !degraded.FtabDegraded() {
					t.Fatalf("degraded kernel: %v", err)
				}
				plain, err := runKernel(degraded, twoPassWork{k}, reads, MapRunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				agree("degraded kernel", plain.Results, false)
				host := make([]core.ApproxResult, len(reads))
				if err := ix.MapReadsApproxFtab(host, reads, k, core.MapOptions{}, false); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(plain.Results, host) {
					t.Error("degraded kernel and the table-off CPU run differ")
				}
				if plain.Rescued != run.Rescued {
					t.Errorf("degraded kernel rescued %d, table kernel %d", plain.Rescued, run.Rescued)
				}

				plan, err := ParseFaultPlan("seed=5,query=0.2,kernel=0.1,result=0.1,corrupt=0.2")
				if err != nil {
					t.Fatal(err)
				}
				devices := make([]*Device, 3)
				for i := range devices {
					devices[i], _ = NewDevice(Config{})
					devices[i].EnableFaults(plan, i)
				}
				farm, err := NewFarmOpts(devices, ix, FarmOptions{VerifyStride: 20, BreakerThreshold: 100, Retry: RetryPolicy{MaxAttempts: 10}})
				if err != nil {
					t.Fatal(err)
				}
				striped, err := farm.MapReadsTwoPassOpts(reads, k, MapRunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if err := striped.VerifyChecksum(); err != nil {
					t.Fatal(err)
				}
				agree("farm under faults", striped.Results, true)
				if stats := farm.Stats(); stats.Retries == 0 {
					t.Errorf("fault plan injected nothing: %+v", stats)
				}
				if striped.Rescued != run.Rescued {
					t.Errorf("farm rescued %d, kernel %d", striped.Rescued, run.Rescued)
				}

				// What the CPU path answered when it searched every read
				// with the budget, against the one answer now.
				differ := 0
				for i, read := range reads[:cut] {
					if all := inBudget(t, ix, read, k); all != want[i].Occurrences() {
						differ++
					}
				}
				t.Logf("%d bp, k=%d: all-in-budget and exact-then-rescue occurrences differ on %d of the first %d reads; %d rescued",
					length, k, differ, cut, run.Rescued)
			})
		}
	}
}

// inBudget counts every occurrence of read or its reverse complement within k
// substitutions — a k-mismatch row's occurrences before exact hits came first.
func inBudget(t *testing.T, ix *core.Index, read dna.Seq, k int) int {
	t.Helper()
	total := 0
	for _, seq := range []dna.Seq{read, read.ReverseComplement()} {
		pattern := make([]uint8, len(seq))
		for i, b := range seq {
			pattern[i] = uint8(b)
		}
		matches, err := ix.FM().CountApprox(pattern, k)
		if err != nil {
			t.Fatal(err)
		}
		total += fmindex.TotalOccurrences(matches)
	}
	return total
}
