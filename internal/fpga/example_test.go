package fpga_test

import (
	"fmt"
	"log"

	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/fpga"
)

// Example shows the device flow: program the simulated card with an index
// and map a batch, getting exact results plus a modeled profile.
func Example() {
	ref := dna.MustParseSeq("ACGTACGGTACCTTAGGCAATCGAACGTACGGTACCTTAG")
	ix, err := core.BuildIndex(ref, core.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}
	dev, err := fpga.NewDevice(fpga.Config{})
	if err != nil {
		log.Fatal(err)
	}
	kernel, err := dev.Program(ix) // enforces the BRAM capacity gate
	if err != nil {
		log.Fatal(err)
	}
	run, err := kernel.MapReadsOpts([]dna.Seq{
		dna.MustParseSeq("GGTACC"),
		dna.MustParseSeq("TTTTTTTT"),
	}, fpga.MapRunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("read 0 mapped:", run.Results[0].Mapped())
	fmt.Println("read 1 mapped:", run.Results[1].Mapped())
	fmt.Println("kernel cycles > 0:", run.Profile.KernelCycles > 0)
	// Output:
	// read 0 mapped: true
	// read 1 mapped: false
	// kernel cycles > 0: true
}
