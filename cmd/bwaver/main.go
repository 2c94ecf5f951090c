// Command bwaver is the BWaveR command-line mapper.
//
//	bwaver index       -ref ref.fa[.gz] -out ref.bwx [-b 15] [-sf 50] [-locate full|sampled|none]
//	                   [-trace spans.json]
//	bwaver map         -index ref.bwx -reads reads.fq[.gz] [-backend cpu|fpga] [-workers N] [-profile p.json]
//	                   [-format tsv|sam] [-mismatches K] [-reads2 mate2.fq[.gz] -min-insert N -max-insert N]
//	                   [-tolerant] [-min-len N -max-ee F -max-n N -trim-qual Q -qc-sort] [-out results]
//	bwaver mem         -index ref.bwx -reads reads.fq[.gz] [-backend cpu|fpga] [-paired]
//	                   [-min-seed 19] [-band 16] [-min-score 30] [-min-insert N -max-insert N]
//	                   [-tolerant] [-min-len N -max-ee F -max-n N -trim-qual Q -qc-sort] [-out out.sam]
//	bwaver stats       -index ref.bwx [-verbose]
//	bwaver extract     -index ref.bwx [-out ref.fa] [-gzip]
//	bwaver verify      -index ref.bwx -ref ref.fa
//	bwaver fpga-report -index ref.bwx [-avg-steps 35] [-pes N]
//
// `index` and `map` are the paper's pipeline (§III-D) split for batch use:
// BWT/SA computation plus succinct encoding, then sequence mapping on the
// CPU or the simulated FPGA. The remaining subcommands exploit properties
// of the structure: the BWT is reversible (extract/verify) and the cycle
// model doubles as a capacity planner (fpga-report).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/fastx"
	"bwaver/internal/fmindex"
	"bwaver/internal/fpga"
	"bwaver/internal/obs"
	"bwaver/internal/qc"
	"bwaver/internal/rrr"
	"bwaver/internal/runner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bwaver:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: bwaver <index|map|stats> [flags]")
	}
	switch args[0] {
	case "index":
		return cmdIndex(args[1:], out)
	case "map":
		return cmdMap(args[1:], out)
	case "mem":
		return cmdMem(args[1:], out)
	case "stats":
		return cmdStats(args[1:], out)
	case "extract":
		return cmdExtract(args[1:], out)
	case "verify":
		return cmdVerify(args[1:], out)
	case "fpga-report":
		return cmdFPGAReport(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want index, map, mem, stats, extract, verify or fpga-report)", args[0])
	}
}

// cmdFPGAReport prints the modeled on-chip resource footprint and
// throughput of the kernel for a built index.
func cmdFPGAReport(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fpga-report", flag.ContinueOnError)
	indexPath := fs.String("index", "", "index file")
	avgSteps := fs.Float64("avg-steps", 35, "mean backward-search steps per read (read length for mapping reads)")
	pes := fs.Int("pes", 1, "processing elements")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *indexPath == "" {
		return fmt.Errorf("fpga-report: -index is required")
	}
	ix, err := core.LoadFile(*indexPath)
	if err != nil {
		return err
	}
	dev, err := fpga.NewDevice(fpga.Config{PEs: *pes})
	if err != nil {
		return err
	}
	kernel, err := dev.Program(ix)
	if err != nil {
		return err
	}
	report, err := kernel.Report(*avgSteps)
	if err != nil {
		return err
	}
	fpga.WriteReport(out, report)
	return nil
}

// cmdExtract reconstructs the reference FASTA from an index file — the BWT
// is reversible, so the succinct structure doubles as a lossless archive.
func cmdExtract(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("extract", flag.ContinueOnError)
	indexPath := fs.String("index", "", "index file")
	outPath := fs.String("out", "", "output FASTA (default stdout)")
	gz := fs.Bool("gzip", false, "gzip the output")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *indexPath == "" {
		return fmt.Errorf("extract: -index is required")
	}
	ix, err := core.LoadFile(*indexPath)
	if err != nil {
		return err
	}
	seq, err := ix.ExtractReference()
	if err != nil {
		return err
	}
	var dst io.Writer = out
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	w := fastx.NewWriter(dst, fastx.FASTA, *gz)
	if contigs := ix.Contigs(); contigs != nil {
		for _, c := range contigs.Contigs() {
			rec := &fastx.Record{ID: c.Name, Seq: []byte(seq[c.Offset:c.End()].String())}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
	} else if err := w.Write(&fastx.Record{ID: "ref", Seq: []byte(seq.String())}); err != nil {
		return err
	}
	return w.Close()
}

// cmdVerify checks an index file against the reference FASTA it was built
// from, by extracting the archived sequence and comparing base by base.
func cmdVerify(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	indexPath := fs.String("index", "", "index file")
	refPath := fs.String("ref", "", "reference FASTA the index should encode")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *indexPath == "" || *refPath == "" {
		return fmt.Errorf("verify: -index and -ref are required")
	}
	ix, err := core.LoadFile(*indexPath)
	if err != nil {
		return err
	}
	ref, contigs, err := loadReference(*refPath)
	if err != nil {
		return err
	}
	got, err := ix.ExtractReference()
	if err != nil {
		return fmt.Errorf("verify: extraction failed: %w", err)
	}
	if len(got) != len(ref) {
		return fmt.Errorf("verify: index encodes %d bases, FASTA has %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			return fmt.Errorf("verify: mismatch at position %d: index has %v, FASTA has %v", i, got[i], ref[i])
		}
	}
	if ixContigs := ix.Contigs(); ixContigs != nil && contigs != nil {
		if ixContigs.Count() != contigs.Count() {
			return fmt.Errorf("verify: index has %d contigs, FASTA has %d", ixContigs.Count(), contigs.Count())
		}
		for i := 0; i < contigs.Count(); i++ {
			a, b := ixContigs.Contig(i), contigs.Contig(i)
			if a != b {
				return fmt.Errorf("verify: contig %d differs: index %+v, FASTA %+v", i, a, b)
			}
		}
	}
	fmt.Fprintf(out, "verify: index matches %s (%d bases)\n", *refPath, len(ref))
	return nil
}

func loadReference(path string) (dna.Seq, *core.ContigSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	seq, contigs, replaced, err := core.ReadReference(f)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if replaced > 0 {
		fmt.Fprintf(os.Stderr, "bwaver: replaced %d ambiguous bases with A\n", replaced)
	}
	return seq, contigs, nil
}

// qcFlagSet registers the QC gate flags shared by the read-mapping
// subcommands; policy() resolves them after Parse.
type qcFlagSet struct {
	minLen, maxN, trimQual, phred *int
	maxEE                         *float64
	sort, tolerant                *bool
}

func addQCFlags(fs *flag.FlagSet) *qcFlagSet {
	return &qcFlagSet{
		minLen:   fs.Int("min-len", 0, "QC: reject reads shorter than this after trimming (0 = off)"),
		maxEE:    fs.Float64("max-ee", 0, "QC: reject reads with more expected errors than this (0 = off)"),
		maxN:     fs.Int("max-n", 0, "QC: reject reads with more than this many ambiguous bases (0 = off)"),
		trimQual: fs.Int("trim-qual", 0, "QC: trim 3' bases below this phred score (0 = off)"),
		sort:     fs.Bool("qc-sort", false, "QC: stably sort surviving reads by ascending expected errors"),
		phred:    fs.Int("phred", 0, "QC: phred offset 33 or 64 (0 = auto-detect)"),
		tolerant: fs.Bool("tolerant", false, "skip malformed FASTQ records instead of aborting"),
	}
}

func (q *qcFlagSet) policy(paired bool) (qc.Policy, error) {
	pol := qc.Policy{
		MinLen: *q.minLen, MaxEE: *q.maxEE, MaxN: *q.maxN, TrimQual: *q.trimQual,
		QualitySort: *q.sort, PhredOffset: *q.phred, Tolerant: *q.tolerant,
		Paired: paired,
	}
	if err := pol.Validate(); err != nil {
		return qc.Policy{}, err
	}
	return pol, nil
}

// activeFlag names a flag that makes the QC policy active, "" when none does.
func (q *qcFlagSet) activeFlag() string {
	switch {
	case *q.minLen > 0:
		return "-min-len"
	case *q.maxEE > 0:
		return "-max-ee"
	case *q.maxN > 0:
		return "-max-n"
	case *q.trimQual > 0:
		return "-trim-qual"
	case *q.sort:
		return "-qc-sort"
	case *q.tolerant:
		return "-tolerant"
	}
	return ""
}

func cmdIndex(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("index", flag.ContinueOnError)
	refPath := fs.String("ref", "", "reference FASTA file (.gz ok)")
	outPath := fs.String("out", "", "output index file")
	b := fs.Int("b", 15, "RRR block size (2-15)")
	sf := fs.Int("sf", 50, "RRR superblock factor (>= 1)")
	locate := fs.String("locate", "full", "locate structure: full, sampled or none")
	sampleRate := fs.Int("sample-rate", 32, "sampled-SA rate (with -locate sampled)")
	ftabK := fs.Int("ftab-k", core.DefaultFtabK, "k-mer prefix-lookup table order (0 = none)")
	tracePath := fs.String("trace", "", "write the build's span trace as JSON to this file (- for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *refPath == "" || *outPath == "" {
		return fmt.Errorf("index: -ref and -out are required")
	}
	var mode core.LocateMode
	switch *locate {
	case "full":
		mode = core.LocateFullSA
	case "sampled":
		mode = core.LocateSampled
	case "none":
		mode = core.LocateNone
	default:
		return fmt.Errorf("index: unknown locate mode %q", *locate)
	}
	ref, contigs, err := loadReference(*refPath)
	if err != nil {
		return err
	}
	// A trace collects one span per construction phase (build.sa, build.bwt,
	// build.encode); without -trace the context carries none and the spans
	// are free no-ops.
	var tr *obs.Trace
	ctx := context.Background()
	if *tracePath != "" {
		tr = obs.NewTrace("index")
		ctx = obs.WithTrace(ctx, tr)
	}
	start := time.Now()
	ix, err := core.BuildIndexCtx(ctx, ref, core.IndexConfig{
		RRR:        rrr.Params{BlockSize: *b, SuperblockFactor: *sf},
		Locate:     mode,
		SampleRate: *sampleRate,
		FtabK:      *ftabK,
	})
	if err != nil {
		return err
	}
	if err := ix.SetContigs(contigs); err != nil {
		return err
	}
	if err := ix.SaveFile(*outPath); err != nil {
		return err
	}
	if tr != nil {
		if err := writeTraceJSON(*tracePath, tr, out); err != nil {
			return err
		}
	}
	st := ix.Stats()
	fmt.Fprintf(out, "indexed %d bases in %v (SA %v, BWT %v, encode %v)\n",
		st.RefLength, time.Since(start).Round(time.Millisecond),
		st.SATime.Round(time.Millisecond), st.BWTTime.Round(time.Millisecond),
		st.EncodeTime.Round(time.Millisecond))
	fmt.Fprintf(out, "structure %.2f MB (+%.2f MB shared table), %.1f%% of the plain BWT; BWT entropy %.3f bits\n",
		float64(st.StructureBytes)/1e6, float64(st.SharedBytes)/1e6,
		st.CompressionRatio()*100, st.BWTEntropy)
	if st.FtabBytes > 0 {
		fmt.Fprintf(out, "ftab k=%d: %.2f MB built in %v\n",
			ix.FtabK(), float64(st.FtabBytes)/1e6, st.FtabTime.Round(time.Millisecond))
	}
	return nil
}

// writeTraceJSON serializes a build trace to path ("-" = the command's
// output writer).
func writeTraceJSON(path string, tr *obs.Trace, out io.Writer) error {
	payload, err := json.MarshalIndent(tr.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	payload = append(payload, '\n')
	if path == "-" {
		_, err := out.Write(payload)
		return err
	}
	return os.WriteFile(path, payload, 0o644)
}

// cmdMap maps reads exactly or within a mismatch budget, as TSV or SAM. With
// -reads2 it maps the two files as mate pairs, exactly and with positions (so
// without -mismatches, -locate=false or QC), a batch from each at a time on
// either backend: a mate file that ends before the other fails the run, and
// the batches already written stand, as in any run that fails part-way.
func cmdMap(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("map", flag.ContinueOnError)
	indexPath := fs.String("index", "", "index file from `bwaver index`")
	readsFile := fs.String("reads", "", "reads FASTQ/FASTA file (.gz ok)")
	backend := fs.String("backend", "cpu", "mapping backend: cpu or fpga")
	workers := fs.Int("workers", 1, "CPU worker goroutines (-1 = all cores)")
	doLocate := fs.Bool("locate", true, "resolve occurrence positions")
	format := fs.String("format", "tsv", "output format: tsv or sam")
	mismatches := fs.Int("mismatches", 0, "substitution budget per read (0 = exact); on the fpga backend this runs the two-pass reconfigurable flow")
	reads2Path := fs.String("reads2", "", "mate-2 FASTQ: map -reads and this file as pairs (a mate-count mismatch fails the run after the batches already written)")
	minInsert := fs.Int("min-insert", 100, "minimum fragment length for proper pairs (with -reads2)")
	maxInsert := fs.Int("max-insert", 600, "maximum fragment length for proper pairs (with -reads2)")
	profilePath := fs.String("profile", "", "write the fpga run's event profile as JSON (fpga backend)")
	outPath := fs.String("out", "", "results file (default stdout)")
	qcf := addQCFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	qcPol, err := qcf.policy(false)
	if err != nil {
		return fmt.Errorf("map: %w", err)
	}
	pairOpts := core.PairOptions{MinInsert: *minInsert, MaxInsert: *maxInsert}
	if *reads2Path != "" {
		// Two-file pairs map exactly and need positions; QC would gate the two
		// files apart and desynchronize their mates. A flag that would change
		// that is refused, not ignored.
		refused := qcf.activeFlag()
		switch {
		case *mismatches != 0:
			refused = "-mismatches"
		case !*doLocate:
			refused = "-locate=false"
		}
		if refused != "" {
			return fmt.Errorf("map: %s is not supported with -reads2; two-file pairs map exactly, with positions (QC-gated pairs: `bwaver mem -paired` on interleaved input)", refused)
		}
		if err := pairOpts.Validate(); err != nil {
			return fmt.Errorf("map: %w", err)
		}
	}
	if *format != "tsv" && *format != "sam" {
		return fmt.Errorf("map: unknown format %q (want tsv or sam)", *format)
	}
	if *format == "sam" && !*doLocate {
		return fmt.Errorf("map: -format sam requires -locate")
	}
	if *mismatches < 0 {
		return fmt.Errorf("map: -mismatches must be >= 0")
	}
	if *mismatches > 0 && *format == "sam" {
		return fmt.Errorf("map: -mismatches currently supports only -format tsv")
	}
	if *indexPath == "" || *readsFile == "" {
		return fmt.Errorf("map: -index and -reads are required")
	}
	ix, err := core.LoadFile(*indexPath)
	if err != nil {
		return err
	}
	run := mapRun{ix: ix, readsPath: *readsFile, reads2Path: *reads2Path, pol: qcPol, backend: *backend,
		workers: *workers, outPath: *outPath, profilePath: *profilePath}
	switch {
	case *reads2Path != "":
		return streamMap(out, run, runner.ExactPairs(ix, pairOpts, *format == "sam"))
	case *mismatches > 0:
		return streamMap(out, run, runner.Approx(ix, *mismatches, *doLocate))
	case *format == "sam":
		return streamMap(out, run, runner.ExactSAM(ix))
	default:
		return streamMap(out, run, runner.Exact(ix, *doLocate))
	}
}

// cmdMem runs the seed-and-extend pipeline (SMEM seeding, chaining, banded
// extension) and writes scored SAM. With -paired the reads file is treated as
// interleaved mate pairs (R1, R2, ...), enabling proper-pair calls and mate
// rescue.
func cmdMem(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mem", flag.ContinueOnError)
	indexPath := fs.String("index", "", "index file from `bwaver index`")
	readsFile := fs.String("reads", "", "reads FASTQ/FASTA file (.gz ok)")
	backend := fs.String("backend", "cpu", "mapping backend: cpu or fpga")
	paired := fs.Bool("paired", false, "treat the reads file as interleaved mate pairs")
	minSeed := fs.Int("min-seed", 0, "minimum SMEM seed length (0 = default 19)")
	band := fs.Int("band", 0, "extension band half-width (0 = default 16)")
	minScore := fs.Int("min-score", 0, "minimum alignment score to report (0 = default 30)")
	minInsert := fs.Int("min-insert", 0, "minimum fragment length for proper pairs (with -paired)")
	maxInsert := fs.Int("max-insert", 0, "maximum fragment length for proper pairs (0 = default 1000, with -paired)")
	outPath := fs.String("out", "", "output SAM file (default stdout)")
	qcf := addQCFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *indexPath == "" || *readsFile == "" {
		return fmt.Errorf("mem: -index and -reads are required")
	}
	qcPol, err := qcf.policy(*paired)
	if err != nil {
		return fmt.Errorf("mem: %w", err)
	}
	ix, err := core.LoadFile(*indexPath)
	if err != nil {
		return err
	}
	opts := core.MemOptions{
		MinSeedLen: *minSeed, Band: *band, MinScore: *minScore,
		Paired: *paired, MinInsert: *minInsert, MaxInsert: *maxInsert,
	}
	var stats core.MemStats
	run := mapRun{ix: ix, readsPath: *readsFile, pol: qcPol, backend: *backend, paired: *paired, outPath: *outPath}
	err = streamMap(out, run, runner.Mem(ix, opts, func(s core.MemStats, _ bool) { stats.Merge(s) }))
	if err == nil {
		fmt.Fprintf(os.Stderr, "bwaver: mem: %d seeds, %d extensions, %d rescues\n",
			stats.Seeds, stats.Extensions, stats.Rescues)
	}
	return err
}

// Test hooks: how many reads a run maps per batch (<= 0 maps the whole input
// as one), and how a run opens its reads file.
var (
	streamBatch = runner.DefaultStreamBatch
	openReads   = func(path string) (io.ReadCloser, error) { return os.Open(path) }
)

// mapRun is what a `map` or `mem` run streams: its input (a second file holds
// the mates of two-file pairs), backend and output.
type mapRun struct {
	ix                   *core.Index
	readsPath            string
	reads2Path           string
	pol                  qc.Policy
	backend              string
	workers              int
	paired               bool
	outPath, profilePath string
}

// streamMap maps a reads file with w through the runner, the loop a served
// job runs: the reads come a batch at a time from a qc.Source (two-file pairs
// from one per mate file, interleaved by runner.Mates), map on the CPU
// or on a one-device farm, and each batch's rows are written before the next
// batch is read. A summary of the run goes to stderr.
func streamMap[R any](out io.Writer, c mapRun, w runner.Work[R]) error {
	opts := runner.Options{Workers: c.workers}
	var power float64
	switch c.backend {
	case "cpu":
	case "fpga":
		dev, err := fpga.NewDevice(fpga.Config{})
		if err != nil {
			return err
		}
		if opts.Farm, err = fpga.NewFarm([]*fpga.Device{dev}, c.ix); err != nil {
			return err
		}
		power = dev.Config().PowerWatts
	default:
		return fmt.Errorf("unknown -backend %q (want cpu or fpga)", c.backend)
	}
	batch := streamBatch
	if c.paired {
		batch = runner.PairAligned(batch)
	}
	src, done, err := openSource(c.readsPath, c.pol, batch)
	if err != nil {
		return err
	}
	defer done()
	var in runner.Source = src
	if c.reads2Path != "" {
		src2, done2, err := openSource(c.reads2Path, qc.Policy{}, batch)
		if err != nil {
			return err
		}
		defer done2()
		in = runner.NewMates(src, src2)
	}
	dst, closeOut := out, func() error { return nil }
	if c.outPath != "" {
		file, err := os.Create(c.outPath)
		if err != nil {
			return err
		}
		defer file.Close()
		dst, closeOut = file, file.Close
	}
	opts.Emit = func(_ qc.Batch, text, _ []byte) error {
		_, err := dst.Write(text)
		return err
	}
	rows := runner.NewRows(c.ix)
	res, err := runner.Run(context.Background(), runner.NewReads(in, nil), w, rows, opts)
	if err != nil {
		return err
	}
	if c.pol.Active() {
		rep := src.Report()
		fmt.Fprintf(os.Stderr, "bwaver: qc: %d/%d reads passed (%d malformed, %d rejected, %d bases trimmed, phred+%d)\n",
			rep.Passed, rep.Attempted, rep.Malformed, rep.RejectedTotal(), rep.TrimmedBases, rep.PhredOffset)
	}
	if res.Reads == 0 {
		return fmt.Errorf("no reads to map in %s", c.readsPath)
	}
	dropped := "hits"
	if c.reads2Path != "" {
		dropped = "pair placements"
	}
	if n := rows.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "bwaver: dropped %d %s spanning contig boundaries\n", n, dropped)
	}
	if c.reads2Path != "" {
		concordant, ambiguous := rows.Pairs()
		fmt.Fprintf(os.Stderr, "bwaver: %d/%d pairs concordant, %d ambiguous\n", concordant, res.Reads/2, ambiguous)
	}
	fmt.Fprintf(os.Stderr, "bwaver: mapped %d/%d reads in %v (%.0f reads/s)\n",
		rows.Mapped(), res.Reads, res.MapTime().Round(time.Millisecond), float64(res.Reads)/res.MapTime().Seconds())
	if opts.Farm != nil {
		p := res.Device
		fmt.Fprintf(os.Stderr, "bwaver: fpga model: total %v (setup %v, index xfer %v, reconfig %v, kernel %v / %d cycles), energy %.2f J\n",
			p.Total().Round(time.Microsecond), p.Setup.Round(time.Microsecond), p.IndexTransfer.Round(time.Microsecond),
			p.Reconfig, p.KernelTime.Round(time.Microsecond), p.KernelCycles, p.EnergyJoules(power))
		if c.profilePath != "" {
			if err := writeProfileJSON(c.profilePath, p, power); err != nil {
				return err
			}
		}
	}
	return closeOut()
}

// openSource opens a reads file as a source of batches of batch reads; done
// closes both.
func openSource(path string, pol qc.Policy, batch int) (src *qc.Source, done func(), err error) {
	f, err := openReads(path)
	if err != nil {
		return nil, nil, err
	}
	if src, err = qc.NewSource(f, pol, batch); err != nil {
		f.Close()
		return nil, nil, err
	}
	return src, func() { src.Close(); f.Close() }, nil
}

// writeProfileJSON dumps the modeled event timeline, the machine-readable
// form of the OpenCL event profiling the paper benchmarks with. Durations
// are nanoseconds.
func writeProfileJSON(path string, p fpga.Profile, powerWatts float64) error {
	payload := struct {
		fpga.Profile
		TotalNs      int64   `json:"total_ns"`
		EnergyJoules float64 `json:"energy_joules"`
	}{
		Profile:      p,
		TotalNs:      int64(p.Total()),
		EnergyJoules: p.EnergyJoules(powerWatts),
	}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func cmdStats(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	indexPath := fs.String("index", "", "index file")
	verbose := fs.Bool("verbose", false, "print the per-node wavelet breakdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *indexPath == "" {
		return fmt.Errorf("stats: -index is required")
	}
	ix, err := core.LoadFile(*indexPath)
	if err != nil {
		return err
	}
	cfg := ix.Config()
	st := ix.Stats()
	fmt.Fprintf(out, "reference length:  %d bases\n", ix.RefLength())
	fmt.Fprintf(out, "rrr parameters:    b=%d sf=%d\n", cfg.RRR.BlockSize, cfg.RRR.SuperblockFactor)
	fmt.Fprintf(out, "locate:            %v\n", cfg.Locate)
	fmt.Fprintf(out, "structure size:    %.3f MB (+%.3f MB shared)\n",
		float64(st.StructureBytes)/1e6, float64(st.SharedBytes)/1e6)
	fmt.Fprintf(out, "total index size:  %.3f MB\n", float64(ix.SizeBytes())/1e6)
	if contigs := ix.Contigs(); contigs != nil {
		fmt.Fprintf(out, "contigs:           %d\n", contigs.Count())
		for _, c := range contigs.Contigs() {
			fmt.Fprintf(out, "  %-20s %10d bp at offset %d\n", c.Name, c.Length, c.Offset)
		}
	}
	if *verbose {
		occ, ok := ix.FM().OccProvider().(*fmindex.WaveletOcc)
		if !ok {
			return fmt.Errorf("stats: index has no wavelet structure to break down")
		}
		fmt.Fprintf(out, "wavelet nodes (entropy drives the RRR offset size, paper §III-B):\n")
		fmt.Fprintf(out, "  %-12s %6s %12s %12s %10s %9s\n",
			"alphabet", "depth", "bits", "ones", "size B", "entropy")
		for _, st := range occ.Tree.NodeStats() {
			var names []byte
			for c := st.Lo; c < st.Hi; c++ {
				names = append(names, dna.Base(c).Byte())
			}
			fmt.Fprintf(out, "  %-12s %6d %12d %12d %10d %9.4f\n",
				string(names), st.Depth, st.Bits, st.Ones, st.SizeBytes, st.Entropy)
		}
	}
	return nil
}
