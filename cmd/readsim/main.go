// Command readsim generates the synthetic workloads BWaveR-Go is evaluated
// on: reference genomes (FASTA) and short-read sets (FASTQ) with a
// controlled mapping ratio.
//
//	readsim genome -out ref.fa [-length N | -preset ecoli|chr21 [-scale F]] [-gc 0.5] [-repeats 0.25] [-seed 1] [-gzip]
//	readsim reads  -ref ref.fa -out reads.fq [-count N] [-length 100] [-ratio 0.5] [-revcomp 0.5] [-error 0]
//	               [-pairs -insert-mean 300 -insert-sd 30] [-dirty 0 -n-frac 0 -qual-drop 0] [-seed 1] [-gzip]
//
// With -pairs the output is interleaved FR mate pairs (R1, R2, R1, R2, ...),
// the wire form the server's mode=mem-pe jobs and `bwaver mem -paired`
// consume; -count then counts pairs, so the file holds 2×count reads.
//
// The -dirty/-n-frac/-qual-drop flags corrupt the corpus for robustness
// testing: -dirty emits that fraction of records malformed (short quality
// line, missing separator, broken header), -n-frac splices N runs into that
// fraction of reads, and -qual-drop collapses the 3' quality tail of that
// fraction. The result exercises the tolerant decoder and QC gate.
package main

import (
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"

	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/fastx"
	"bwaver/internal/readsim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "readsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: readsim <genome|reads> [flags]")
	}
	switch args[0] {
	case "genome":
		return cmdGenome(args[1:], out)
	case "reads":
		return cmdReads(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want genome or reads)", args[0])
	}
}

func cmdGenome(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("genome", flag.ContinueOnError)
	outPath := fs.String("out", "", "output FASTA path")
	length := fs.Int("length", 0, "genome length in bases (ignored with -preset)")
	preset := fs.String("preset", "", "paper-scale preset: ecoli or chr21")
	scale := fs.Float64("scale", 1, "preset scale factor in (0,1]")
	gc := fs.Float64("gc", 0.5, "GC content")
	repeats := fs.Float64("repeats", 0.25, "repeat fraction")
	seed := fs.Int64("seed", 1, "random seed")
	gz := fs.Bool("gzip", false, "gzip the output")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outPath == "" {
		return fmt.Errorf("genome: -out is required")
	}
	var (
		g    dna.Seq
		err  error
		name string
	)
	switch *preset {
	case "ecoli":
		g, err = readsim.EColiLike(*seed, *scale)
		name = fmt.Sprintf("synthetic-ecoli scale=%g seed=%d", *scale, *seed)
	case "chr21":
		g, err = readsim.Chr21Like(*seed, *scale)
		name = fmt.Sprintf("synthetic-chr21 scale=%g seed=%d", *scale, *seed)
	case "":
		if *length <= 0 {
			return fmt.Errorf("genome: -length or -preset is required")
		}
		g, err = readsim.Genome(readsim.GenomeConfig{
			Length: *length, GC: *gc, RepeatFraction: *repeats, Seed: *seed,
		})
		name = fmt.Sprintf("synthetic length=%d seed=%d", *length, *seed)
	default:
		return fmt.Errorf("genome: unknown preset %q", *preset)
	}
	if err != nil {
		return err
	}
	f, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	w := fastx.NewWriter(f, fastx.FASTA, *gz)
	if err := w.Write(&fastx.Record{ID: "ref", Desc: name, Seq: []byte(g.String())}); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d bases to %s\n", len(g), *outPath)
	return nil
}

func cmdReads(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("reads", flag.ContinueOnError)
	refPath := fs.String("ref", "", "reference FASTA to sample from")
	outPath := fs.String("out", "", "output FASTQ path")
	count := fs.Int("count", 10000, "number of reads")
	length := fs.Int("length", 100, "read length")
	ratio := fs.Float64("ratio", 0.5, "mapping ratio in [0,1]")
	revcomp := fs.Float64("revcomp", 0.5, "reverse-strand fraction of mapped reads")
	errRate := fs.Float64("error", 0, "per-base substitution probability on sampled reads")
	pairs := fs.Bool("pairs", false, "emit interleaved FR mate pairs (-count counts pairs)")
	insertMean := fs.Int("insert-mean", 300, "mean fragment length (with -pairs)")
	insertSD := fs.Int("insert-sd", 30, "fragment length standard deviation (with -pairs)")
	dirty := fs.Float64("dirty", 0, "fraction of records emitted malformed")
	nFrac := fs.Float64("n-frac", 0, "fraction of reads with an N run spliced in")
	qualDrop := fs.Float64("qual-drop", 0, "fraction of reads with a collapsed 3' quality tail")
	seed := fs.Int64("seed", 1, "random seed")
	gz := fs.Bool("gzip", false, "gzip the output")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dirtyCfg := readsim.DirtyConfig{MalformedFrac: *dirty, NFrac: *nFrac, QualDrop: *qualDrop, Seed: *seed}
	if err := dirtyCfg.Validate(); err != nil {
		return err
	}
	useDirty := *dirty > 0 || *nFrac > 0 || *qualDrop > 0
	if *refPath == "" || *outPath == "" {
		return fmt.Errorf("reads: -ref and -out are required")
	}
	rf, err := os.Open(*refPath)
	if err != nil {
		return err
	}
	defer rf.Close()
	ref, _, _, err := core.ReadReference(rf)
	if err != nil {
		return fmt.Errorf("reads: %s: %w", *refPath, err)
	}
	if *pairs {
		return writePairs(out, ref, *outPath, *count, *length, *ratio, *errRate,
			*insertMean, *insertSD, *seed, *gz, useDirty, dirtyCfg)
	}
	sim, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: *count, Length: *length, MappingRatio: *ratio,
		RevCompFraction: *revcomp, ErrorRate: *errRate, Seed: *seed,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if useDirty {
		dirtyReads := make([]readsim.FastqRead, len(sim))
		for i, r := range sim {
			dirtyReads[i] = readsim.FastqRead{ID: r.ID, Seq: []byte(r.Seq.String())}
		}
		st, err := writeDirty(f, dirtyReads, dirtyCfg, *gz)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d reads of %d bp to %s (%d malformed, %d with Ns, %d quality-dropped)\n",
			st.Records, *length, *outPath, st.Malformed, st.NInjected, st.QualDropped)
		return nil
	}
	w := fastx.NewWriter(f, fastx.FASTQ, *gz)
	for _, r := range sim {
		desc := "origin=random"
		if r.Origin >= 0 {
			strand := "+"
			if r.RevStrand {
				strand = "-"
			}
			desc = fmt.Sprintf("origin=%d strand=%s", r.Origin, strand)
		}
		if err := w.Write(&fastx.Record{ID: r.ID, Desc: desc, Seq: []byte(r.Seq.String())}); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d reads of %d bp to %s\n", len(sim), *length, *outPath)
	return nil
}

// writeDirty routes the corrupted corpus through an optional gzip layer.
func writeDirty(f *os.File, reads []readsim.FastqRead, cfg readsim.DirtyConfig, gz bool) (readsim.DirtyStats, error) {
	if !gz {
		return readsim.WriteDirtyFastq(f, reads, cfg)
	}
	zw := gzip.NewWriter(f)
	st, err := readsim.WriteDirtyFastq(zw, reads, cfg)
	if err != nil {
		zw.Close()
		return st, err
	}
	return st, zw.Close()
}

// writePairs emits interleaved FR mate pairs with /1 and /2 name suffixes.
func writePairs(out io.Writer, ref dna.Seq, outPath string, count, length int, ratio, errRate float64, insertMean, insertSD int, seed int64, gz bool, useDirty bool, dirtyCfg readsim.DirtyConfig) error {
	sim, err := readsim.SimulatePairs(ref, readsim.PairConfig{
		Count: count, ReadLength: length, MappingRatio: ratio, ErrorRate: errRate,
		InsertMean: insertMean, InsertStdDev: insertSD, Seed: seed,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if useDirty {
		var dirtyReads []readsim.FastqRead
		for _, p := range sim {
			for m, seq := range [2]dna.Seq{p.R1, p.R2} {
				dirtyReads = append(dirtyReads, readsim.FastqRead{
					ID: fmt.Sprintf("%s/%d", p.ID, m+1), Seq: []byte(seq.String()),
				})
			}
		}
		st, err := writeDirty(f, dirtyReads, dirtyCfg, gz)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d pairs (%d reads) of %d bp to %s (%d malformed, %d with Ns, %d quality-dropped)\n",
			len(sim), st.Records, length, outPath, st.Malformed, st.NInjected, st.QualDropped)
		return nil
	}
	w := fastx.NewWriter(f, fastx.FASTQ, gz)
	for _, p := range sim {
		mates := [2]dna.Seq{p.R1, p.R2}
		for m, seq := range mates {
			rec := &fastx.Record{ID: fmt.Sprintf("%s/%d", p.ID, m+1), Seq: []byte(seq.String())}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d pairs (%d reads) of %d bp to %s\n", len(sim), 2*len(sim), length, outPath)
	return nil
}
