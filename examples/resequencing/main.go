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
	"slices"
	"strings"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/fpga"
	"bwaver/internal/readsim"
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
	farm, err := fpga.NewFarm([]*fpga.Device{dev}, ix)
	if err != nil {
		log.Fatal(err)
	}
	// A locating session: the host reads every hit's positions off the
	// search that found it, the paper's final host-side step.
	run, err := fpga.NewSession(farm, fpga.Exact(true), fpga.MapRunOptions{}).Map(readsim.Seqs(reads))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mapping: modeled device time %v\n", run.Profile.Total().Round(time.Millisecond))

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

	// Coverage distribution, read off the sorted per-base depths.
	total := 0
	for _, c := range coverage {
		total += int(c)
	}
	slices.Sort(coverage)
	fmt.Printf("coverage (unique reads only): mean %.2fx, median %dx, p5 %dx, p95 %dx\n",
		float64(total)/genomeLen, coverage[genomeLen/2], coverage[genomeLen/20], coverage[genomeLen*19/20])
	fmt.Println("coverage histogram:")
	for lo := int32(0); lo < 40; lo += 5 {
		first, _ := slices.BinarySearch(coverage, lo)
		end, _ := slices.BinarySearch(coverage, lo+5)
		fmt.Printf("  [%2d,%2d) %9d %s\n", lo, lo+5, end-first, strings.Repeat("#", (end-first)*50/genomeLen))
	}
}
