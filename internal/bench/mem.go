package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/fpga"
	"bwaver/internal/readsim"
)

// Seed-and-extend ("mem") benchmark: the full SMEM → chain → extend → MAPQ
// pipeline over an E.Coli-scale reference at several read lengths, single-end
// and paired. The host column is the serving path's CPU fallback; the kernel
// column is the modeled two-pass device (seeding pass, reconfiguration,
// systolic extension pass), so the reconfiguration charge and the DP-cell
// cycle volume are visible next to the host rate they amortize against.

// memArm is one workload shape of the sweep.
type memArm struct {
	readLen int
	paired  bool
}

// memArms is the default sweep: the paper's short-read regime plus the
// longer-read shapes where extension (pass 2) dominates seeding (pass 1).
var memArms = []memArm{
	{70, false},
	{70, true},
	{100, true},
	{150, true},
}

// memErrorRate is the per-base substitution rate of the simulated reads —
// high enough that exact matching would miss most of them, which is the
// regime the seed-and-extend pipeline exists for.
const memErrorRate = 0.02

// MemRow is one arm of the mem sweep.
type MemRow struct {
	ReadLength int     `json:"read_length"`
	Paired     bool    `json:"paired"`
	Reads      int     `json:"reads"`
	MappedPct  float64 `json:"mapped_pct"`
	// ReadsPerSec is the host (CPU fallback) rate.
	ReadsPerSec float64 `json:"reads_per_sec"`
	// AllocsPerRead is the heap allocations per read of the steady-state
	// batch path (pools warm, result buffer reused) — the zero-allocation
	// pipeline's regression gauge.
	AllocsPerRead float64 `json:"allocs_per_read"`
	// Speedup is ReadsPerSec over the same arm's rate in the baseline sweep
	// the caller supplied (0 when no baseline row matches).
	Speedup float64 `json:"speedup,omitempty"`
	// Per-read pipeline intensity, the quantities that size the two passes.
	SeedsPerRead      float64 `json:"seeds_per_read"`
	ChainsPerRead     float64 `json:"chains_per_read"`
	ExtensionsPerRead float64 `json:"extensions_per_read"`
	CellsPerRead      float64 `json:"dp_cells_per_read"`
	Rescues           int     `json:"rescues"`
	// Modeled device figures: total kernel cycles across both passes, the
	// fabric reconfiguration charge between them, and the end-to-end device
	// time including transfers.
	KernelCycles uint64  `json:"kernel_cycles"`
	ReconfigMs   float64 `json:"reconfig_ms"`
	FPGAMs       float64 `json:"fpga_ms"`
}

// MemBenchResult bundles the sweep with its workload parameters.
type MemBenchResult struct {
	Reference string   `json:"reference"`
	RefBases  int      `json:"ref_bases"`
	ErrorRate float64  `json:"error_rate"`
	Rows      []MemRow `json:"rows"`
}

// MemBench runs the seed-and-extend sweep. The index is built once and
// shared across arms; each arm simulates its own read set (90% drawn from
// the reference with memErrorRate substitutions), measures the host pipeline
// rate and its steady-state allocations, and replays the same batch through
// the modeled kernel. A non-nil baseline (an earlier sweep's JSON, see
// LoadMemJSON) fills each row's Speedup against the matching arm.
func MemBench(s Scale, baseline *MemBenchResult, progress io.Writer) (*MemBenchResult, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	genome, err := EColi.generate(s)
	if err != nil {
		return nil, err
	}
	ix, err := core.BuildIndex(genome, core.IndexConfig{})
	if err != nil {
		return nil, err
	}
	res := &MemBenchResult{
		Reference: EColi.String(),
		RefBases:  len(genome),
		ErrorRate: memErrorRate,
	}
	for ai, arm := range memArms {
		seqs, err := memReads(genome, arm, s, int64(ai))
		if err != nil {
			return nil, err
		}
		opts := core.MemOptions{Paired: arm.paired}

		// Host rate: accumulate passes until the measurement is long
		// enough to trust. The first pass also warms the lazily-built
		// bidirectional index and the batch engine's scratch pools so the
		// timing covers only steady-state mapping into a reused buffer.
		results := make([]core.MemResult, len(seqs))
		if _, err := ix.MapReadsMemInto(results, seqs, opts, core.MapOptions{}); err != nil {
			return nil, err
		}
		var elapsed time.Duration
		var stats core.MemStats
		mapped := 0
		for pass := 0; pass < 50 && elapsed < 200*time.Millisecond; pass++ {
			st, err := ix.MapReadsMemInto(results, seqs, opts, core.MapOptions{})
			if err != nil {
				return nil, err
			}
			elapsed += st.Elapsed
			mapped += len(seqs)
			if pass == 0 {
				stats = st
			}
		}

		// Steady-state allocation rate: one more pass bracketed by the
		// runtime's cumulative malloc counter, after the passes above warmed
		// every pool.
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := ix.MapReadsMemInto(results, seqs, opts, core.MapOptions{}); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&m1)
		allocsPerRead := float64(m1.Mallocs-m0.Mallocs) / float64(len(seqs))

		dev, err := fpga.NewDevice(s.deviceConfig())
		if err != nil {
			return nil, err
		}
		kernel, err := dev.Program(ix)
		if err != nil {
			return nil, err
		}
		run, err := kernel.MapReadsMemOpts(seqs, opts, fpga.MapRunOptions{})
		if err != nil {
			return nil, err
		}

		n := float64(stats.Reads)
		row := MemRow{
			ReadLength:        arm.readLen,
			Paired:            arm.paired,
			Reads:             stats.Reads,
			MappedPct:         100 * float64(stats.MappedReads) / n,
			ReadsPerSec:       float64(mapped) / elapsed.Seconds(),
			AllocsPerRead:     allocsPerRead,
			SeedsPerRead:      float64(stats.Seeds) / n,
			ChainsPerRead:     float64(stats.Chains) / n,
			ExtensionsPerRead: float64(stats.Extensions) / n,
			CellsPerRead:      float64(stats.Cells) / n,
			Rescues:           stats.Rescues,
			KernelCycles:      run.Profile.KernelCycles,
			ReconfigMs:        float64(run.Profile.Reconfig) / float64(time.Millisecond),
			FPGAMs:            float64(run.Profile.Total()) / float64(time.Millisecond),
		}
		if base := baselineRow(baseline, arm); base != nil && base.ReadsPerSec > 0 {
			row.Speedup = row.ReadsPerSec / base.ReadsPerSec
		}
		res.Rows = append(res.Rows, row)
		if progress != nil {
			fmt.Fprintf(progress, "mem %3dbp %-6s %8.0f reads/s  %5.1f%% mapped  %8.0f cells/read  %12d cycles\n",
				arm.readLen, pairedLabel(arm.paired), row.ReadsPerSec, row.MappedPct,
				row.CellsPerRead, row.KernelCycles)
		}
	}
	return res, nil
}

// memReads simulates one arm's read batch: paired arms interleave mates
// (R1, R2, ...) exactly as the serving path streams them.
func memReads(genome dna.Seq, arm memArm, s Scale, salt int64) ([]dna.Seq, error) {
	if arm.paired {
		pairs, err := readsim.SimulatePairs(genome, readsim.PairConfig{
			Count: s.SampleReads / 2, ReadLength: arm.readLen,
			InsertMean: 3 * arm.readLen, InsertStdDev: arm.readLen / 4,
			MappingRatio: 0.9, ErrorRate: memErrorRate, Seed: s.Seed + 61 + salt,
		})
		if err != nil {
			return nil, err
		}
		seqs := make([]dna.Seq, 0, 2*len(pairs))
		for _, p := range pairs {
			seqs = append(seqs, p.R1, p.R2)
		}
		return seqs, nil
	}
	reads, err := readsim.Simulate(genome, readsim.ReadsConfig{
		Count: s.SampleReads, Length: arm.readLen, MappingRatio: 0.9,
		RevCompFraction: 0.5, ErrorRate: memErrorRate, Seed: s.Seed + 61 + salt,
	})
	if err != nil {
		return nil, err
	}
	return readsim.Seqs(reads), nil
}

func pairedLabel(p bool) string {
	if p {
		return "paired"
	}
	return "single"
}

// baselineRow finds the baseline sweep's row for the same workload shape.
func baselineRow(baseline *MemBenchResult, arm memArm) *MemRow {
	if baseline == nil {
		return nil
	}
	for i := range baseline.Rows {
		if baseline.Rows[i].ReadLength == arm.readLen && baseline.Rows[i].Paired == arm.paired {
			return &baseline.Rows[i]
		}
	}
	return nil
}

// LoadMemJSON reads an earlier sweep's JSON (a recorded BENCH_*.json) for
// use as a speedup baseline.
func LoadMemJSON(path string) (*MemBenchResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var res MemBenchResult
	if err := json.NewDecoder(f).Decode(&res); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &res, nil
}

// PrintMemBench renders the sweep.
func PrintMemBench(w io.Writer, res *MemBenchResult) {
	fmt.Fprintf(w, "\nSeed-and-extend (mem) — %s (%d bases), %.0f%% substitution reads\n",
		res.Reference, res.RefBases, res.ErrorRate*100)
	fmt.Fprintf(w, "%-6s %-7s %7s %8s %12s %8s %8s %8s %11s %14s %10s %10s\n",
		"len", "mode", "reads", "mapped", "reads/s", "allocs/r", "speedup", "seeds/r", "cells/r", "cycles", "reconfig", "fpga")
	for _, r := range res.Rows {
		speedup := "-"
		if r.Speedup > 0 {
			speedup = fmt.Sprintf("%.2fx", r.Speedup)
		}
		fmt.Fprintf(w, "%-6d %-7s %7d %7.1f%% %12.0f %8.2f %8s %8.2f %11.0f %14d %9.1fms %9.1fms\n",
			r.ReadLength, pairedLabel(r.Paired), r.Reads, r.MappedPct, r.ReadsPerSec,
			r.AllocsPerRead, speedup, r.SeedsPerRead, r.CellsPerRead,
			r.KernelCycles, r.ReconfigMs, r.FPGAMs)
	}
}

// WriteMemJSON serializes the sweep (the BENCH_pr8.json payload).
func WriteMemJSON(w io.Writer, res *MemBenchResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
