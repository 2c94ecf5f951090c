package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/fpga"
	"bwaver/internal/readsim"
)

// Prefix-table ablation: the same read batch mapped with the k-mer lookup
// table at several orders (k=0 disables it), on the host hot path and the
// modeled kernel. The host column is the zero-allocation MapReadsInto
// pipeline, so the allocs/read figure doubles as a regression gate; the
// kernel column shows the first k pipeline iterations collapsing into one
// BRAM lookup cycle — and, at orders whose table no longer fits next to the
// succinct structure, the graceful degrade back to ftab-off hardware.

// FtabKs is the default order sweep; 12 exceeds the default 40 MiB BRAM
// budget (4^12 intervals = 128 MiB) and exercises the degrade path.
var FtabKs = []int{0, 8, 10, 12}

// ftabReadLen matches Table I's short-read workload, where the table
// covers the largest fraction of each search.
const ftabReadLen = 35

// FtabRow is one arm of the ablation.
type FtabRow struct {
	K              int     `json:"k"`
	StructureBytes int     `json:"structure_bytes"`
	FtabBytes      int     `json:"ftab_bytes"`
	FtabBuildMs    float64 `json:"ftab_build_ms"`
	ReadsPerSec    float64 `json:"reads_per_sec"`
	AllocsPerRead  float64 `json:"allocs_per_read"`
	KernelCycles   uint64  `json:"kernel_cycles"`
	FPGAMs         float64 `json:"fpga_ms"`
	Degraded       bool    `json:"bram_degraded"`
	// Speedup is host reads/sec relative to the k=0 arm (1.0 when the
	// sweep has no k=0 arm to compare against).
	Speedup float64 `json:"speedup_vs_k0"`
}

// FtabResult bundles the sweep with its workload parameters.
type FtabResult struct {
	Reference    string    `json:"reference"`
	RefBases     int       `json:"ref_bases"`
	Reads        int       `json:"reads"`
	ReadLength   int       `json:"read_length"`
	MappingRatio float64   `json:"mapping_ratio"`
	Rows         []FtabRow `json:"rows"`
}

// FtabAblate sweeps the prefix-table order over ks (FtabKs when empty) on an
// E.Coli-scale reference with Table I-style 35 bp reads at 50% mapping
// ratio. The index is built once; each arm swaps the table via EnsureFtab so
// the succinct structure is shared and only the quantity under test varies.
func FtabAblate(s Scale, ks []int, progress io.Writer) (*FtabResult, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if len(ks) == 0 {
		ks = FtabKs
	}
	genome, err := EColi.generate(s)
	if err != nil {
		return nil, err
	}
	ix, err := core.BuildIndex(genome, core.IndexConfig{})
	if err != nil {
		return nil, err
	}
	const ratio = 0.5
	reads, err := readsim.Simulate(genome, readsim.ReadsConfig{
		Count: s.SampleReads, Length: ftabReadLen, MappingRatio: ratio,
		RevCompFraction: 0.5, Seed: s.Seed + 31,
	})
	if err != nil {
		return nil, err
	}
	seqs := readsim.Seqs(reads)
	dst := make([]core.MapResult, len(seqs))
	res := &FtabResult{
		Reference:    EColi.String(),
		RefBases:     len(genome),
		Reads:        len(seqs),
		ReadLength:   ftabReadLen,
		MappingRatio: ratio,
	}
	single := core.MapOptions{Workers: 1}
	for _, k := range ks {
		if err := ix.EnsureFtab(k); err != nil {
			return nil, err
		}
		// Warm-up pass fills the pooled scratch buffers; afterwards the
		// single-worker pipeline should allocate nothing per read.
		if _, err := ix.MapReadsInto(dst, seqs, single); err != nil {
			return nil, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ix.MapReadsInto(dst, seqs, single); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		allocsPerRead := float64(after.Mallocs-before.Mallocs) / float64(len(seqs))

		// Timing: accumulate passes until the measurement is long enough to
		// trust, then report the per-read rate.
		var elapsed time.Duration
		mapped := 0
		for pass := 0; pass < 50 && elapsed < 200*time.Millisecond; pass++ {
			st, err := ix.MapReadsInto(dst, seqs, single)
			if err != nil {
				return nil, err
			}
			elapsed += st.Elapsed
			mapped += len(seqs)
		}

		dev, err := fpga.NewDevice(s.deviceConfig())
		if err != nil {
			return nil, err
		}
		kernel, err := dev.Program(ix)
		if err != nil {
			return nil, err
		}
		run, err := kernel.MapReadsOpts(seqs, fpga.MapRunOptions{})
		if err != nil {
			return nil, err
		}
		row := FtabRow{
			K:              k,
			StructureBytes: ix.StructureBytes(),
			FtabBytes:      ix.FtabBytes(),
			FtabBuildMs:    float64(ix.Stats().FtabTime) / float64(time.Millisecond),
			ReadsPerSec:    float64(mapped) / elapsed.Seconds(),
			AllocsPerRead:  allocsPerRead,
			KernelCycles:   run.Profile.KernelCycles,
			FPGAMs:         float64(run.Profile.Total()) / float64(time.Millisecond),
			Degraded:       kernel.FtabDegraded(),
		}
		res.Rows = append(res.Rows, row)
		if progress != nil {
			fmt.Fprintf(progress, "ftab k=%-2d table=%8.2f MB  %10.0f reads/s  %.2f allocs/read  %12d cycles%s\n",
				k, float64(row.FtabBytes)/1e6, row.ReadsPerSec, row.AllocsPerRead,
				row.KernelCycles, degradedNote(row.Degraded))
		}
	}
	baseline := 0.0
	for _, r := range res.Rows {
		if r.K == 0 {
			baseline = r.ReadsPerSec
		}
	}
	for i := range res.Rows {
		if baseline > 0 {
			res.Rows[i].Speedup = res.Rows[i].ReadsPerSec / baseline
		} else {
			res.Rows[i].Speedup = 1
		}
	}
	return res, nil
}

func degradedNote(d bool) string {
	if d {
		return "  (BRAM degrade: ftab off)"
	}
	return ""
}

// PrintFtabAblation renders the sweep.
func PrintFtabAblation(w io.Writer, res *FtabResult) {
	fmt.Fprintf(w, "\nAblation — k-mer prefix table (%s, %d x %d bp reads, %.0f%% mapping)\n",
		res.Reference, res.Reads, res.ReadLength, res.MappingRatio*100)
	fmt.Fprintf(w, "%-4s %12s %12s %12s %10s %8s %14s %10s %s\n",
		"k", "ftab MB", "on-chip MB", "reads/s", "speedup", "allocs", "cycles", "fpga", "degraded")
	for _, r := range res.Rows {
		onChip := r.StructureBytes
		if !r.Degraded {
			onChip += r.FtabBytes // a degraded kernel keeps only the structure on chip
		}
		fmt.Fprintf(w, "%-4d %12.2f %12.2f %12.0f %9.2fx %8.2f %14d %10s %v\n",
			r.K, float64(r.FtabBytes)/1e6, float64(onChip)/1e6,
			r.ReadsPerSec, r.Speedup, r.AllocsPerRead, r.KernelCycles,
			fmt.Sprintf("%.1fms", r.FPGAMs), r.Degraded)
	}
}

// WriteFtabJSON serializes the sweep (the BENCH_pr4.json payload).
func WriteFtabJSON(w io.Writer, res *FtabResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
