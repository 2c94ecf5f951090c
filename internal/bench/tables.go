package bench

import (
	"fmt"
	"io"
	"time"

	"bwaver/internal/baseline"
	"bwaver/internal/core"
	"bwaver/internal/fpga"
	"bwaver/internal/readsim"
	"bwaver/internal/rrr"
)

// TableEntry is one column group of Tables I/II: a mapper configuration's
// time plus its speed and power-efficiency ratios relative to BWaveR-FPGA.
type TableEntry struct {
	// Config names the row: "BWaveR FPGA", "BWaveR CPU", "Bowtie2-like 1t" ...
	Config string
	Time   time.Duration
	// Slowdown is Time / FPGA-Time, the paper's "Speed-up" row read from
	// the FPGA's perspective (the FPGA row holds 1).
	Slowdown float64
	// PowerRatio is energy relative to the FPGA run: Slowdown scaled by
	// the 135 W / 25 W power ratio (the paper's "Power efficiency" row).
	PowerRatio float64
	// Modeled marks Time as cycle-model output, not host wall-clock.
	Modeled bool
	// Paper is what the paper publishes for this row, zero where it (or
	// this repository's record of it) has no figure.
	Paper PaperFigure
}

// TableResult is one read-count block of Table I or II.
type TableResult struct {
	Ref Reference
	// Reads is PaperReads scaled by Scale.Reads.
	Reads, PaperReads int
	ReadLen           int
	Entries           []TableEntry
}

// PaperFigure is one published row of Table I or II.
type PaperFigure struct {
	Time    time.Duration
	SpeedUp float64
}

type paperRow struct {
	ref    Reference
	reads  int
	config string
}

// paperFigures are the published values PrintTable shows beside the
// measured ones: all of Table I but its 8-thread row, and from Table II the
// CPU speed-up per read count plus the 16-thread run that beats the device
// at 1 M reads.
var paperFigures = map[paperRow]PaperFigure{
	{EColi, 100_000_000, "BWaveR FPGA"}:      {3623 * time.Millisecond, 1},
	{EColi, 100_000_000, "BWaveR CPU"}:       {247214 * time.Millisecond, 68.2},
	{EColi, 100_000_000, "Bowtie2-like 1t"}:  {176683 * time.Millisecond, 48.8},
	{EColi, 100_000_000, "Bowtie2-like 16t"}: {11542 * time.Millisecond, 3.18},
	{Chr21, 1_000_000, "BWaveR CPU"}:         {SpeedUp: 13.6},
	{Chr21, 1_000_000, "Bowtie2-like 16t"}:   {SpeedUp: 0.74},
	{Chr21, 10_000_000, "BWaveR CPU"}:        {SpeedUp: 62.4},
	{Chr21, 100_000_000, "BWaveR CPU"}:       {SpeedUp: 70.4},
}

// TableReadCounts are the paper's workload sizes: Table I uses the largest
// only; Table II all three.
var TableReadCounts = []int{1_000_000, 10_000_000, 100_000_000}

// tableParams are the hardware parameters of §IV: b=15, sf=50 for every
// Table I/II run, on both CPU and FPGA.
var tableParams = rrr.Params{BlockSize: 15, SuperblockFactor: 50}

// tableThreads are the Bowtie2 thread counts of the tables.
var tableThreads = []int{1, 8, 16}

// tableMappingRatio approximates the paper's (unstated) workload mix; the
// relative results are insensitive to it because every mapper sees the same
// reads.
const tableMappingRatio = 0.3

// RunTable produces one block of Table I (ref = EColi, readLen = 35) or
// Table II (ref = Chr21, readLen = 40): it builds both indexes, measures a
// read sample on every configuration, and extrapolates to target read
// counts.
func RunTable(ref Reference, readLen int, readCounts []int, s Scale, progress io.Writer) ([]TableResult, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	genome, err := ref.generate(s)
	if err != nil {
		return nil, err
	}

	// BWaveR index (shared by CPU and FPGA paths) and baseline index.
	ix, err := core.BuildIndex(genome, core.IndexConfig{RRR: tableParams})
	if err != nil {
		return nil, err
	}
	// The BWaveR CPU row times the paper's search, which ranks every
	// pattern to the end; the three-mapper gate below then compares the
	// rows that ranked search reaches on all three.
	ix.DropText()
	dev, err := fpga.NewDevice(s.deviceConfig())
	if err != nil {
		return nil, err
	}
	kernel, err := dev.Program(ix)
	if err != nil {
		return nil, err
	}
	bl, err := baseline.NewMapper(genome)
	if err != nil {
		return nil, err
	}

	// Measure once on the sample; per-read costs extrapolate linearly.
	reads, err := readsim.Simulate(genome, readsim.ReadsConfig{
		Count: s.SampleReads, Length: readLen, MappingRatio: tableMappingRatio,
		RevCompFraction: 0.5, Seed: s.Seed + 13,
	})
	if err != nil {
		return nil, err
	}
	seqs := readsim.Seqs(reads)

	_, cpuStats, err := ix.MapReads(seqs, core.MapOptions{})
	if err != nil {
		return nil, err
	}
	run, err := kernel.MapReadsOpts(seqs, fpga.MapRunOptions{})
	if err != nil {
		return nil, err
	}
	avgSteps := float64(cpuStats.TotalSteps) / float64(s.SampleReads)

	// Accuracy gate: the three mappers must agree on every sampled read
	// before their times are worth comparing.
	blResults, _, err := bl.MapReads(seqs, 1, false)
	if err != nil {
		return nil, err
	}
	cpuResults, _, err := ix.MapReads(seqs[:min(2000, len(seqs))], core.MapOptions{})
	if err != nil {
		return nil, err
	}
	// The baseline reports the empty range its search died at; Canonical
	// gives every empty range the one form the batch reports.
	fm := ix.FM()
	for i := range cpuResults {
		if run.Results[i].Forward != cpuResults[i].Forward ||
			fm.Canonical(blResults[i].Forward) != cpuResults[i].Forward ||
			run.Results[i].Reverse != cpuResults[i].Reverse ||
			fm.Canonical(blResults[i].Reverse) != cpuResults[i].Reverse {
			return nil, fmt.Errorf("bench: mappers disagree on read %d; refusing to benchmark wrong code", i)
		}
	}

	blTimes := make(map[int]time.Duration)
	for _, threads := range tableThreads {
		_, st, err := bl.MapReads(seqs, threads, false)
		if err != nil {
			return nil, err
		}
		blTimes[threads] = st.Elapsed
		if progress != nil {
			fmt.Fprintf(progress, "table %-12s baseline %2d threads: %v for %d reads\n",
				ref, threads, st.Elapsed.Round(time.Millisecond), s.SampleReads)
		}
	}

	var results []TableResult
	for _, paperCount := range readCounts {
		target := int(float64(paperCount) * s.Reads)
		if target < 1 {
			target = 1
		}
		fpgaTime := kernel.ModelProfile(target, avgSteps).Total()
		res := TableResult{Ref: ref, Reads: target, PaperReads: paperCount, ReadLen: readLen}
		paper := func(name string) PaperFigure { return paperFigures[paperRow{ref, paperCount, name}] }
		add := func(name string, t time.Duration) {
			slow := float64(t) / float64(fpgaTime)
			res.Entries = append(res.Entries, TableEntry{
				Config:     name,
				Time:       t,
				Slowdown:   slow,
				PowerRatio: slow * HostPowerWatts / FPGAPowerWatts,
				Paper:      paper(name),
			})
		}
		res.Entries = append(res.Entries, TableEntry{
			Config: "BWaveR FPGA", Time: fpgaTime, Slowdown: 1, PowerRatio: 1,
			Modeled: true, Paper: paper("BWaveR FPGA"),
		})
		add("BWaveR CPU", extrapolate(cpuStats.Elapsed, s.SampleReads, target))
		for _, threads := range tableThreads {
			add(fmt.Sprintf("Bowtie2-like %dt", threads),
				extrapolate(blTimes[threads], s.SampleReads, target))
		}
		results = append(results, res)
		if progress != nil {
			fmt.Fprintf(progress, "table %-12s %d reads: fpga=%v\n",
				ref, target, fpgaTime.Round(time.Millisecond))
		}
	}
	return results, nil
}

// Table1 reproduces Table I: 100 M (scaled) 35 bp reads on E. coli.
func Table1(s Scale, progress io.Writer) ([]TableResult, error) {
	return RunTable(EColi, 35, TableReadCounts[2:], s, progress)
}

// Table2 reproduces Table II: 1, 10 and 100 M (scaled) 40 bp reads on
// chromosome 21.
func Table2(s Scale, progress io.Writer) ([]TableResult, error) {
	return RunTable(Chr21, 40, TableReadCounts, s, progress)
}

// PrintFig5 renders the Fig. 5 rows (sizes) as a table.
func PrintFig5(w io.Writer, rows []Fig5Row) {
	fmt.Fprintf(w, "\nFig. 5 — data structure size [MB] (uncompressed BWT = 1 B/base)\n")
	fmt.Fprintf(w, "%-12s %4s %5s %12s %12s %8s\n", "reference", "b", "sf", "size MB", "plain MB", "saving")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %4d %5d %12.3f %12.3f %7.1f%%\n",
			r.Ref, r.B, r.SF, float64(r.TotalBytes())/1e6,
			float64(r.UncompressedBytes)/1e6, r.Saving()*100)
	}
}

// PrintFig6 renders the Fig. 6 rows (build times) as a table.
func PrintFig6(w io.Writer, rows []Fig5Row) {
	fmt.Fprintf(w, "\nFig. 6 — structure building time\n")
	fmt.Fprintf(w, "%-12s %4s %5s %14s\n", "reference", "b", "sf", "encode time")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %4d %5d %14v\n", r.Ref, r.B, r.SF, r.BuildTime.Round(time.Microsecond))
	}
}

// ms renders a duration as fractional milliseconds, the unit of the paper's
// tables, without rounding sub-millisecond model output to zero.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f ms", float64(d)/float64(time.Millisecond))
}

// PrintFig7 renders the Fig. 7 rows. The last column is the row's host time
// over the E.Coli row's at the same (b, sf, ratio) — the paper's "search time
// is independent of reference length" reads 1.00 there.
func PrintFig7(w io.Writer, rows []Fig7Row) {
	type point struct {
		b, sf int
		ratio float64
	}
	ecoli := map[point]time.Duration{}
	for _, r := range rows {
		if r.Ref == EColi {
			ecoli[point{r.B, r.SF, r.MappingRatio}] = r.CPUTime
		}
	}
	fmt.Fprintf(w, "\nFig. 7 — mapping time vs mapping ratio (%d reads of 100 bp)\n", rowsReads(rows))
	fmt.Fprintf(w, "%-12s %4s %5s %7s %16s %16s %10s\n",
		"reference", "b", "sf", "ratio", "host cpu time", "modeled fpga", "vs E.Coli")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %4d %5d %6.0f%% %16s %16s %9.2fx\n",
			r.Ref, r.B, r.SF, r.MappingRatio*100, ms(r.CPUTime), ms(r.FPGATime),
			float64(r.CPUTime)/float64(ecoli[point{r.B, r.SF, r.MappingRatio}]))
	}
}

func rowsReads(rows []Fig7Row) int {
	if len(rows) == 0 {
		return 0
	}
	return rows[0].Reads
}

// PrintTable renders Table I/II blocks in the paper's layout: measured host
// wall-clock and modeled device time in separate columns, then the paper's
// published figure for the row where there is one.
func PrintTable(w io.Writer, title string, results []TableResult) {
	fmt.Fprintf(w, "\n%s\n", title)
	for _, res := range results {
		fmt.Fprintf(w, "\n%s, %d reads of %d bp (paper: %d)\n", res.Ref, res.Reads, res.ReadLen, res.PaperReads)
		fmt.Fprintf(w, "%-18s %16s %16s %10s %12s | %12s %14s\n",
			"config", "host time", "modeled time", "speed-up", "power-eff", "paper time", "paper speed-up")
		for _, e := range res.Entries {
			host, modeled := ms(e.Time), "-"
			if e.Modeled {
				host, modeled = modeled, host
			}
			paperTime, paperSpeedUp := "-", "-"
			if e.Paper.Time > 0 {
				paperTime = fmt.Sprintf("%d ms", e.Paper.Time.Milliseconds())
			}
			if e.Paper.SpeedUp > 0 {
				paperSpeedUp = fmt.Sprintf("%.2fx", e.Paper.SpeedUp)
			}
			fmt.Fprintf(w, "%-18s %16s %16s %9.2fx %11.2fx | %12s %14s\n",
				e.Config, host, modeled, e.Slowdown, e.PowerRatio, paperTime, paperSpeedUp)
		}
	}
}
