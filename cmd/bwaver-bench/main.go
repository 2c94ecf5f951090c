// Command bwaver-bench regenerates the figures and tables of the paper's
// evaluation (§IV) and the design ablations, printing the paper's published
// value beside each measured one.
//
//	bwaver-bench [-ref-scale 1] [-read-scale 1] [-sample 50000] [-seed 1] [-quiet]
//	             <fig5|fig6|fig7|table1|table2|ablate|all>
//
// With no flags it runs at the paper's reference lengths and read counts —
// the configuration EXPERIMENTS.md records (about two minutes and 0.8 GB on two cores).
// The scale flags shrink the workloads for tests.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"bwaver/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bwaver-bench:", err)
		os.Exit(1)
	}
}

var targets = []string{"fig5", "fig6", "fig7", "table1", "table2", "ablate", "all"}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bwaver-bench", flag.ContinueOnError)
	refScale := fs.Float64("ref-scale", 1, "reference length scale in (0,1]; 1 is the paper's lengths")
	readScale := fs.Float64("read-scale", 1, "read count scale in (0,1]; 1 is the paper's counts")
	sample := fs.Int("sample", 50000, "reads measured before extrapolating")
	seed := fs.Int64("seed", 1, "random seed")
	quiet := fs.Bool("quiet", false, "suppress progress lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: bwaver-bench [flags] <%s>", strings.Join(targets, "|"))
	}
	target := fs.Arg(0)
	if !slices.Contains(targets, target) {
		return fmt.Errorf("unknown experiment %q", target)
	}
	wants := func(names ...string) bool { return target == "all" || slices.Contains(names, target) }

	scale := bench.Scale{Ref: *refScale, Reads: *readScale, SampleReads: *sample, Seed: *seed}
	var progress io.Writer = os.Stderr
	if *quiet {
		progress = nil
	}
	start := time.Now()
	fmt.Fprintf(out, "BWaveR evaluation — ref scale %g, read scale %g, sample %d reads, seed %d, GOMAXPROCS %d\n",
		scale.Ref, scale.Reads, scale.SampleReads, scale.Seed, runtime.GOMAXPROCS(0))

	if wants("fig5", "fig6") {
		rows, err := bench.Fig5And6(scale, progress)
		if err != nil {
			return err
		}
		if target != "fig6" {
			bench.PrintFig5(out, rows)
		}
		if target != "fig5" {
			bench.PrintFig6(out, rows)
		}
	}
	if wants("fig7") {
		rows, err := bench.Fig7(scale, progress)
		if err != nil {
			return err
		}
		bench.PrintFig7(out, rows)
	}
	if wants("table1") {
		results, err := bench.Table1(scale, progress)
		if err != nil {
			return err
		}
		bench.PrintTable(out, "Table I — 35 bp reads on E.Coli", results)
	}
	if wants("table2") {
		results, err := bench.Table2(scale, progress)
		if err != nil {
			return err
		}
		bench.PrintTable(out, "Table II — 40 bp reads on Human Chr.21", results)
	}
	if wants("ablate") {
		res, err := bench.Ablate(scale, progress)
		if err != nil {
			return err
		}
		bench.PrintAblation(out, res)
	}
	fmt.Fprintf(out, "\nwall time %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
