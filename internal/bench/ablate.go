package bench

import (
	"fmt"
	"io"
	"time"

	"bwaver/internal/bwt"
	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/fmindex"
	"bwaver/internal/fpga"
	"bwaver/internal/readsim"
	"bwaver/internal/rrr"
	"bwaver/internal/suffixarray"
	"bwaver/internal/wavelet"
)

// Ablations quantify the design choices DESIGN.md calls out, beyond the
// paper's own tables: Occ structure, rank pipelining, PE count, and
// double buffering.

// OccAblationRow compares one Occ provider.
type OccAblationRow struct {
	Name      string
	SizeBytes int
	// RankTime is the mean time of one Occ query.
	RankTime time.Duration
}

// KernelAblationRow compares one device configuration.
type KernelAblationRow struct {
	Name         string
	KernelCycles uint64
	Total        time.Duration
}

// AblationResult bundles all ablation outputs.
type AblationResult struct {
	Occ    []OccAblationRow
	Kernel []KernelAblationRow
}

// Ablate runs every ablation at the given scale.
func Ablate(s Scale, progress io.Writer) (*AblationResult, error) {
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
	// Extract the BWT data by rebuilding the pipeline pieces once.
	text := make([]uint8, len(genome))
	for i, b := range genome {
		text[i] = uint8(b)
	}
	bwtData, err := bwtDataOf(text)
	if err != nil {
		return nil, err
	}

	out := &AblationResult{}

	// --- Occ providers ---
	providers := []struct {
		name string
		mk   func() (fmindex.OccProvider, error)
	}{
		{"wavelet/rrr (paper)", func() (fmindex.OccProvider, error) {
			return fmindex.NewWaveletOcc(bwtData, 4, rrr.DefaultParams)
		}},
		{"wavelet/plain", func() (fmindex.OccProvider, error) {
			return fmindex.NewWaveletOccBackend(bwtData, 4, wavelet.PlainBackend())
		}},
		{"checkpoint (bowtie-like)", func() (fmindex.OccProvider, error) {
			return fmindex.NewCheckpointOcc(bwtData)
		}},
		{"rlfm", func() (fmindex.OccProvider, error) {
			return fmindex.NewRLFMOcc(bwtData, 4, rrr.DefaultParams)
		}},
	}
	const rankQueries = 200000
	for _, p := range providers {
		occ, err := p.mk()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < rankQueries; i++ {
			occ.Occ(uint8(i&3), (i*7919)%(occ.Len()+1))
		}
		row := OccAblationRow{
			Name:      p.name,
			SizeBytes: occ.SizeBytes(),
			RankTime:  time.Since(start) / rankQueries,
		}
		out.Occ = append(out.Occ, row)
		if progress != nil {
			fmt.Fprintf(progress, "ablate occ %-26s %8.3f MB  %v/rank\n",
				p.name, float64(row.SizeBytes)/1e6, row.RankTime)
		}
	}

	// --- Kernel configurations ---
	sample := min(s.SampleReads, 20000)
	reads, err := readsim.Simulate(genome, readsim.ReadsConfig{
		Count: sample, Length: 40, MappingRatio: 0.5, RevCompFraction: 0.5, Seed: s.Seed + 19,
	})
	if err != nil {
		return nil, err
	}
	seqs := readsim.Seqs(reads)
	kernels := []struct {
		name string
		cfg  fpga.Config
	}{
		{"baseline (paper)", fpga.Config{}},
		{"sequential rank", fpga.Config{SequentialRank: true}},
		{"2 PEs", fpga.Config{PEs: 2}},
		{"4 PEs", fpga.Config{PEs: 4}},
		{"double buffered", fpga.Config{DoubleBuffer: true}},
	}
	for _, k := range kernels {
		cfg := k.cfg
		cfg.SetupTime = s.deviceConfig().SetupTime
		dev, err := fpga.NewDevice(cfg)
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
		row := KernelAblationRow{
			Name:         k.name,
			KernelCycles: run.Profile.KernelCycles,
			Total:        run.Profile.Total(),
		}
		out.Kernel = append(out.Kernel, row)
		if progress != nil {
			fmt.Fprintf(progress, "ablate kernel %-18s %12d cycles  total %v\n",
				k.name, row.KernelCycles, row.Total.Round(time.Microsecond))
		}
	}
	return out, nil
}

// bwtDataOf runs the SA+BWT stages and returns the compact BWT symbols.
func bwtDataOf(text []uint8) ([]uint8, error) {
	sa, err := suffixarray.Build(text, dna.AlphabetSize)
	if err != nil {
		return nil, err
	}
	tr, err := bwt.Transform(text, sa)
	if err != nil {
		return nil, err
	}
	return tr.Data, nil
}

// PrintAblation renders the ablation tables.
func PrintAblation(w io.Writer, res *AblationResult) {
	fmt.Fprintf(w, "\nAblation — Occ structures (E.Coli-scale reference)\n")
	fmt.Fprintf(w, "%-28s %12s %14s\n", "structure", "size MB", "per-rank")
	for _, r := range res.Occ {
		fmt.Fprintf(w, "%-28s %12.3f %14v\n", r.Name, float64(r.SizeBytes)/1e6, r.RankTime)
	}
	fmt.Fprintf(w, "\nAblation — kernel configurations (modeled)\n")
	fmt.Fprintf(w, "%-20s %14s %16s\n", "kernel", "cycles", "total")
	for _, r := range res.Kernel {
		fmt.Fprintf(w, "%-20s %14d %16s\n", r.Name, r.KernelCycles, ms(r.Total))
	}
}
