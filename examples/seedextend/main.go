// Seed-and-extend: the workload the paper's introduction motivates — exact
// short-fragment mapping as the seeding stage of an aligner for longer,
// error-containing reads. 150 bp reads with 2% substitution errors go
// through core's mem pipeline (SMEM seeds on the bidirectional index,
// collinear chaining, banded Smith-Waterman extension, MAPQ) on the host,
// then batch by batch through one two-pass session on the simulated FPGA,
// which seeds on the device, reconfigures once and extends on the alignment
// array. Both are scored against the simulator's truth and must agree read
// for read.
//
//	go run ./examples/seedextend
package main

import (
	"fmt"
	"log"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/fpga"
	"bwaver/internal/readsim"
)

const batch = 500

func main() {
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 1_000_000, GC: 0.45, RepeatFraction: 0.2, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	sim, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 2000, Length: 150, MappingRatio: 1, RevCompFraction: 0.5, ErrorRate: 0.02, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	reads := readsim.Seqs(sim)
	ix, err := core.BuildIndex(ref, core.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}
	var opts core.MemOptions

	start := time.Now()
	host, stats, err := ix.MapReadsMem(reads, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("host: %d/%d reads aligned in %v (%.1f seeds, %.1f extensions per read)\n",
		stats.MappedReads, stats.Reads, time.Since(start).Round(time.Millisecond),
		float64(stats.Seeds)/float64(stats.Reads), float64(stats.Extensions)/float64(stats.Reads))

	dev, err := fpga.NewDevice(fpga.Config{})
	if err != nil {
		log.Fatal(err)
	}
	farm, err := fpga.NewFarm([]*fpga.Device{dev}, ix)
	if err != nil {
		log.Fatal(err)
	}
	session := farm.NewMemSession(opts, fpga.MapRunOptions{})
	var profile fpga.Profile
	for lo := 0; lo < len(reads); lo += batch {
		run, err := session.Map(reads[lo:min(lo+batch, len(reads))])
		if err != nil {
			log.Fatal(err)
		}
		for i, res := range run.Results {
			if res.Best != host[lo+i].Best {
				log.Fatalf("read %s: device alignment %+v, host %+v", sim[lo+i].ID, res.Best, host[lo+i].Best)
			}
		}
		profile.Merge(run.Profile)
	}
	fmt.Printf("fpga: %d batches, %d reconfiguration, modeled %v (kernel %d cycles); alignments equal the host's\n",
		session.Batches(), session.Reconfigs(), profile.Total().Round(time.Microsecond), profile.KernelCycles)

	// A repeat copy is as good a placement as the truth, and MAPQ says so:
	// score the confident placements apart from the rest.
	var correct, confident, confidentCorrect int
	for i, r := range sim {
		b := host[i].Best
		ok := b.Mapped() && b.Forward != r.RevStrand && abs(int(b.Pos)-r.Origin) <= 10
		if ok {
			correct++
		}
		if b.MapQ >= 30 {
			confident++
			if ok {
				confidentCorrect++
			}
		}
	}
	fmt.Printf("%d/%d reads at their true locus and strand; %d/%d at MAPQ >= 30\n",
		correct, len(sim), confidentCorrect, confident)
	if correct < len(sim)*8/10 || confidentCorrect < confident*99/100 {
		log.Fatal("seed-and-extend accuracy too low")
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
