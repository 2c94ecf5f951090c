package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"bwaver/internal/bwt"
	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/fmindex"
	"bwaver/internal/fpga"
	"bwaver/internal/readsim"
	"bwaver/internal/rrr"
	"bwaver/internal/suffixarray"
)

// Ablations quantify the design choices DESIGN.md calls out, beyond the
// paper's own tables: Occ structure, rank pipelining, PE count, double
// buffering, the prefix table, the locate structure, and exact search
// finishing on the text.

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

// FtabAblationRow is mapping with the prefix table off or on.
type FtabAblationRow struct {
	Name       string
	TableBytes int
	// HostPerRead is measured on one worker; KernelCycles is modeled.
	HostPerRead  time.Duration
	KernelCycles uint64
}

// ExactAblationRow is exact search ranking every pattern to the end, as the
// paper's does, or finishing on the packed text.
type ExactAblationRow struct {
	Name string
	// HostPerRead is measured on one worker; KernelCycles is modeled.
	HostPerRead  time.Duration
	KernelCycles uint64
}

// LocateAblationRow compares one locate structure.
type LocateAblationRow struct {
	Name       string
	IndexBytes int
	// PerRead is the one-worker host time to map a read and locate its
	// hits, in the fastest of ablatePasses passes.
	PerRead time.Duration
}

// AblationResult bundles all ablation outputs.
type AblationResult struct {
	Occ    []OccAblationRow
	Kernel []KernelAblationRow
	Ftab   []FtabAblationRow
	Locate []LocateAblationRow
	Exact  []ExactAblationRow
}

// ablatePasses is how many times a timed row repeats its work. The row
// reports the fastest pass: on a shared host interference only adds time,
// and one pass read the same rank at 135 and at 231 ns.
const ablatePasses = 5

// fastest runs pass ablatePasses times and returns its fastest time.
func fastest(pass func() error) (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for range ablatePasses {
		start := time.Now()
		if err := pass(); err != nil {
			return 0, err
		}
		best = min(best, time.Since(start))
	}
	return best, nil
}

// Ablate runs every ablation at the given scale.
func Ablate(s Scale, progress io.Writer) (*AblationResult, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	genome, err := eColi.generate(s)
	if err != nil {
		return nil, err
	}
	ix, err := core.BuildIndex(genome, core.IndexConfig{})
	if err != nil {
		return nil, err
	}
	// The index does not expose its BWT; run the SA+BWT stages once more.
	bwtData, err := bwtDataOf(genome)
	if err != nil {
		return nil, err
	}

	out := &AblationResult{}

	// --- Occ providers: the paper's structure against the uncompressed
	// checkpointed layout of CPU mappers (the paper's Bowtie baseline) ---
	providers := []struct {
		name string
		mk   func() (fmindex.OccProvider, error)
	}{
		{"wavelet/rrr (paper)", func() (fmindex.OccProvider, error) {
			return fmindex.NewWaveletOcc(bwtData, 4, rrr.DefaultParams)
		}},
		{"checkpoint (bowtie-like)", func() (fmindex.OccProvider, error) {
			return fmindex.NewCheckpointOcc(bwtData)
		}},
	}
	const rankQueries = 200000
	for _, p := range providers {
		occ, err := p.mk()
		if err != nil {
			return nil, err
		}
		best, _ := fastest(func() error {
			for i := 0; i < rankQueries; i++ {
				occ.Occ(uint8(i&3), (i*7919)%(occ.Len()+1))
			}
			return nil
		})
		row := OccAblationRow{
			Name:      p.name,
			SizeBytes: occ.SizeBytes(),
			RankTime:  best / rankQueries,
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
		run, err := modelRun(k.cfg, s, ix, seqs)
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

	// --- Locate structures ---
	for _, l := range []struct {
		name string
		cfg  core.IndexConfig
	}{
		{"full SA (paper)", core.IndexConfig{}},
		{"sampled SA, rate 8", core.IndexConfig{Locate: core.LocateSampled, SampleRate: 8}},
		{"sampled SA, rate 32", core.IndexConfig{Locate: core.LocateSampled, SampleRate: 32}},
	} {
		lix, err := core.BuildIndex(genome, l.cfg)
		if err != nil {
			return nil, err
		}
		dst := make([]core.MapResult, len(seqs))
		best, err := fastest(func() error {
			_, err := lix.MapReadsInto(dst, seqs, core.MapOptions{Workers: 1, Locate: true})
			return err
		})
		if err != nil {
			return nil, err
		}
		row := LocateAblationRow{Name: l.name, IndexBytes: lix.SizeBytes(), PerRead: best / time.Duration(sample)}
		out.Locate = append(out.Locate, row)
		if progress != nil {
			fmt.Fprintf(progress, "ablate locate %-20s %8.3f MB  %v/read\n", l.name, float64(row.IndexBytes)/1e6, row.PerRead)
		}
	}

	// --- Prefix table off / on: one index, the table attached in place ---
	var off *fpga.Run[core.MapResult]
	for _, k := range []int{0, core.DefaultFtabK} {
		if err := ix.EnsureFtab(k); err != nil {
			return nil, err
		}
		_, st, err := ix.MapReads(seqs, core.MapOptions{Workers: 1})
		if err != nil {
			return nil, err
		}
		run, err := modelRun(fpga.Config{}, s, ix, seqs)
		if err != nil {
			return nil, err
		}
		if off == nil {
			off = run
		}
		for i := range run.Results {
			if run.Results[i].Forward != off.Results[i].Forward || run.Results[i].Reverse != off.Results[i].Reverse {
				return nil, fmt.Errorf("bench: prefix table k=%d changed the result of read %d", k, i)
			}
		}
		row := FtabAblationRow{
			Name: fmt.Sprintf("k=%d", k), TableBytes: ix.FtabBytes(),
			HostPerRead: st.Elapsed / time.Duration(sample), KernelCycles: run.Profile.KernelCycles,
		}
		out.Ftab = append(out.Ftab, row)
		if progress != nil {
			fmt.Fprintf(progress, "ablate ftab %-5s %8.3f MB  %v/read  %12d cycles\n",
				row.Name, float64(row.TableBytes)/1e6, row.HostPerRead, row.KernelCycles)
		}
	}

	// --- Exact search finishing on the text, then, the text detached,
	// ranking to the end: the same counts and steps, so the same cycles ---
	dst := make([]core.MapResult, len(seqs))
	exactRow := func(name string) (ExactAblationRow, *fpga.Run[core.MapResult], error) {
		best, err := fastest(func() error {
			_, err := ix.MapReadsInto(dst, seqs, core.MapOptions{Workers: 1})
			return err
		})
		if err != nil {
			return ExactAblationRow{}, nil, err
		}
		run, err := modelRun(fpga.Config{}, s, ix, seqs)
		if err != nil {
			return ExactAblationRow{}, nil, err
		}
		return ExactAblationRow{Name: name, HostPerRead: best / time.Duration(sample), KernelCycles: run.Profile.KernelCycles}, run, nil
	}
	onText, textRun, err := exactRow("finishes on text")
	if err != nil {
		return nil, err
	}
	ix.DropText()
	ranked, rankedRun, err := exactRow("ranked (paper)")
	if err != nil {
		return nil, err
	}
	for i, r := range rankedRun.Results {
		t := textRun.Results[i]
		if r.Forward.Count() != t.Forward.Count() || r.Reverse.Count() != t.Reverse.Count() || r.Steps != t.Steps {
			return nil, fmt.Errorf("bench: finishing on the text changed the result of read %d", i)
		}
	}
	out.Exact = []ExactAblationRow{ranked, onText}
	if progress != nil {
		for _, row := range out.Exact {
			fmt.Fprintf(progress, "ablate exact %-18s %v/read  %12d cycles\n", row.Name, row.HostPerRead, row.KernelCycles)
		}
	}
	return out, nil
}

// modelRun maps seqs on a freshly programmed simulated card.
func modelRun(cfg fpga.Config, s Scale, ix *core.Index, seqs []dna.Seq) (*fpga.Run[core.MapResult], error) {
	cfg.SetupTime = s.deviceConfig().SetupTime
	dev, err := fpga.NewDevice(cfg)
	if err != nil {
		return nil, err
	}
	kernel, err := dev.Program(ix)
	if err != nil {
		return nil, err
	}
	return kernel.MapReadsOpts(seqs, fpga.MapRunOptions{})
}

// bwtDataOf runs the SA+BWT stages and returns the compact BWT symbols.
func bwtDataOf(text dna.Seq) ([]uint8, error) {
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
	fmt.Fprintf(w, "\nAblation — prefix table (identical results asserted)\n")
	fmt.Fprintf(w, "%-20s %12s %14s %16s\n", "ftab", "table MB", "host per-read", "modeled cycles")
	for _, r := range res.Ftab {
		fmt.Fprintf(w, "%-20s %12.3f %14v %16d\n", r.Name, float64(r.TableBytes)/1e6, r.HostPerRead, r.KernelCycles)
	}
	fmt.Fprintf(w, "\nAblation — locate structures (host, map + locate)\n")
	fmt.Fprintf(w, "%-20s %12s %14s\n", "locate", "index MB", "per-read")
	for _, r := range res.Locate {
		fmt.Fprintf(w, "%-20s %12.3f %14v\n", r.Name, float64(r.IndexBytes)/1e6, r.PerRead)
	}
	fmt.Fprintf(w, "\nAblation — exact search (identical counts and steps asserted)\n")
	fmt.Fprintf(w, "%-20s %14s %16s\n", "search", "host per-read", "modeled cycles")
	for _, r := range res.Exact {
		fmt.Fprintf(w, "%-20s %14v %16d\n", r.Name, r.HostPerRead, r.KernelCycles)
	}
}
