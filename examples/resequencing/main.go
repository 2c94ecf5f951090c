// Resequencing: the genome-resequencing scenario from the paper's
// introduction — hundreds of thousands of short reads mapped onto a known
// reference to measure coverage. A synthetic 2 Mbp genome is sequenced at
// ~15x depth with 100 bp reads (5% contamination that maps nowhere), mapped
// with BWaveR on the simulated FPGA, and summarised as a coverage histogram.
//
//	go run ./examples/resequencing
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/fpga"
	"bwaver/internal/readsim"
	"bwaver/internal/stats"
)

func main() {
	const (
		genomeLen = 2_000_000
		readLen   = 100
		depth     = 15
	)
	nReads := genomeLen * depth / readLen

	fmt.Printf("simulating %d bp genome and %d reads of %d bp (~%dx depth)\n",
		genomeLen, nReads, readLen, depth)
	ref, err := readsim.Genome(readsim.GenomeConfig{
		Length: genomeLen, GC: 0.41, RepeatFraction: 0.3, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	reads, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: nReads, Length: readLen, MappingRatio: 0.95, RevCompFraction: 0.5, Seed: 8,
	})
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	ix, err := core.BuildIndex(ref, core.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index built in %v; structure %.2f MB vs %.2f MB plain BWT\n",
		time.Since(start).Round(time.Millisecond),
		float64(ix.StructureBytes())/1e6, float64(ix.Stats().UncompressedBytes)/1e6)

	dev, err := fpga.NewDevice(fpga.Config{})
	if err != nil {
		log.Fatal(err)
	}
	kernel, err := dev.Program(ix)
	if err != nil {
		log.Fatal(err)
	}
	run, err := kernel.MapReadsOpts(readsim.Seqs(reads), fpga.MapRunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	locateTime, err := kernel.LocateResults(run.Results)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mapping: modeled device time %v, host locate %v\n",
		run.Profile.Total().Round(time.Millisecond), locateTime.Round(time.Millisecond))

	// Accumulate per-base coverage from uniquely-mapping reads, the core of
	// a resequencing pipeline. Forward hits cover [p, p+len); reverse-strand
	// reads map via their reverse complement, which covers the same window.
	coverage := make([]int32, genomeLen)
	unique, multi, unmapped := 0, 0, 0
	for i, res := range run.Results {
		n := res.Occurrences()
		switch {
		case n == 0:
			unmapped++
			continue
		case n > 1:
			multi++
			continue
		}
		unique++
		var pos int32
		if len(res.ForwardPositions) == 1 {
			pos = res.ForwardPositions[0]
		} else {
			pos = res.ReversePositions[0]
		}
		for j := int(pos); j < int(pos)+len(reads[i].Seq) && j < genomeLen; j++ {
			coverage[j]++
		}
	}
	fmt.Printf("reads: %d unique, %d multi-mapping, %d unmapped\n", unique, multi, unmapped)

	// Coverage distribution.
	sample := make([]float64, 0, genomeLen/10)
	hist, err := stats.NewHistogram(0, 40, 8)
	if err != nil {
		log.Fatal(err)
	}
	total := 0
	for i, c := range coverage {
		hist.Add(float64(c))
		total += int(c)
		if i%10 == 0 {
			sample = append(sample, float64(c))
		}
	}
	summary := stats.Summarize(sample)
	fmt.Printf("coverage (unique reads only): mean %.2fx, median %.0fx, p5 %.0fx, p95 %.0fx\n",
		float64(total)/float64(genomeLen), summary.Median, summary.P5, summary.P95)
	fmt.Println("coverage histogram:")
	hist.Render(os.Stdout, 50)
}
