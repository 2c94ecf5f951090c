// Quickstart: build a BWaveR index over a small reference, map a handful of
// reads on the CPU and on the simulated FPGA, and print the occurrences.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/fpga"
)

func main() {
	// A toy reference. Real genomes come from FASTA files via internal/fastx
	// or the readsim generator; the API is identical.
	ref := dna.MustParseSeq(
		"ACGTACGGTACCTTAGGCAATCGAACGTACGGTACCTTAGGCAATCGATTGGCCAATTGGCCAA" +
			"GATTACAGATTACAGGGCCCAAATTTACGTACGTACGTTGCATGCATGCATGCAACGTACGGTA")

	// Step 1+2 of the pipeline: suffix array + BWT, then succinct encoding
	// (wavelet tree of RRR sequences, b=15 sf=50 by default).
	ix, err := core.BuildIndex(ref, core.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}
	st := ix.Stats()
	fmt.Printf("indexed %d bases; structure %d B (+%d B shared table); BWT entropy %.3f bits\n",
		st.RefLength, st.StructureBytes, st.SharedBytes, st.BWTEntropy)

	reads := []dna.Seq{
		dna.MustParseSeq("GGTACCTTAGGC"), // occurs twice, forward
		dna.MustParseSeq("GCCTAAGGTACC"), // reverse complement of the above
		dna.MustParseSeq("GATTACA"),      // the classic
		dna.MustParseSeq("TTTTTTTTTTTT"), // maps nowhere
	}

	// Step 3a: map on the CPU.
	fmt.Println("\nCPU mapping:")
	results, stats, err := ix.MapReads(reads, core.MapOptions{Locate: true})
	if err != nil {
		log.Fatal(err)
	}
	for i, res := range results {
		fmt.Printf("  read %d %-14s mapped=%-5t fw=%v rc=%v\n",
			i, reads[i], res.Mapped(), res.ForwardPositions, res.ReversePositions)
	}
	fmt.Printf("  %d/%d reads mapped in %v\n", stats.MappedReads, stats.Reads, stats.Elapsed)

	// Step 3b: the same batch on the simulated Alveo U200.
	fmt.Println("\nFPGA mapping (simulated):")
	dev, err := fpga.NewDevice(fpga.Config{})
	if err != nil {
		log.Fatal(err)
	}
	kernel, err := dev.Program(ix)
	if err != nil {
		log.Fatal(err)
	}
	run, err := kernel.MapReadsOpts(reads, fpga.MapRunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for i, res := range run.Results {
		fmt.Printf("  read %d %-14s mapped=%-5t occurrences=%d\n",
			i, reads[i], res.Mapped(), res.Occurrences())
	}
	p := run.Profile
	fmt.Printf("  modeled device time %v (%d kernel cycles), energy %.3f mJ\n",
		p.Total(), p.KernelCycles, p.EnergyJoules(dev.Config().PowerWatts)*1e3)
	for _, e := range p.Events {
		fmt.Printf("    event %-14s %12v -> %12v\n", e.Name, e.Start, e.End)
	}
}
