// Variantcall: the complete resequencing use case from the paper's
// introduction — determine a sample's genetic variants relative to a known
// reference. A sample genome with planted SNVs is sequenced (with
// sequencing errors), the reads are mapped with the k-mismatch search on
// the simulated FPGA's two-pass flow, uniquely-mapped reads are piled up,
// and SNVs are called and compared against the planted truth.
//
//	go run ./examples/variantcall
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/fpga"
	"bwaver/internal/readsim"
	"bwaver/internal/variant"
)

const (
	genomeLen = 500_000
	nSNVs     = 120
	readLen   = 80
	depth     = 12
	errorRate = 0.002
)

func main() {
	nReads := genomeLen * depth / readLen
	rng := rand.New(rand.NewSource(11))

	ref, err := readsim.Genome(readsim.GenomeConfig{Length: genomeLen, Seed: 2, RepeatFraction: 0.1})
	if err != nil {
		log.Fatal(err)
	}
	// The sample differs from the reference at nSNVs well-separated sites.
	sample := ref.Clone()
	truth := map[int]dna.Base{}
	for len(truth) < nSNVs {
		pos := readLen + rng.Intn(genomeLen-2*readLen)
		clash := false
		for q := range truth {
			if q > pos-2*readLen && q < pos+2*readLen {
				clash = true
			}
		}
		if clash {
			continue
		}
		alt := dna.Base((int(sample[pos]) + 1 + rng.Intn(3)) % 4)
		truth[pos] = alt
		sample[pos] = alt
	}
	fmt.Printf("planted %d SNVs in a %d bp sample; sequencing %d reads of %d bp (%.1fx, %.2g%% error)\n",
		nSNVs, genomeLen, nReads, readLen, float64(depth), errorRate*100)

	reads, err := readsim.Simulate(sample, readsim.ReadsConfig{
		Count: nReads, Length: readLen, MappingRatio: 1,
		RevCompFraction: 0.5, ErrorRate: errorRate, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Index the reference; map on the simulated FPGA with the two-pass
	// reconfigurable flow so reads crossing an SNV are rescued at k=1.
	ix, err := core.BuildIndex(ref, core.IndexConfig{})
	if err != nil {
		log.Fatal(err)
	}
	dev, err := fpga.NewDevice(fpga.Config{})
	if err != nil {
		log.Fatal(err)
	}
	kernel, err := dev.Program(ix)
	if err != nil {
		log.Fatal(err)
	}
	mapStart := time.Now()
	run, err := kernel.MapReadsTwoPassOpts(readsim.Seqs(reads), 2, fpga.MapRunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("two-pass mapping: modeled device time %v (%d reads rescued by the mismatch kernel), host wall %v\n",
		run.Profile.Total().Round(time.Millisecond), run.Rescued, time.Since(mapStart).Round(time.Millisecond))

	// Pile up uniquely-mapping reads.
	pile, err := variant.NewPileup(genomeLen)
	if err != nil {
		log.Fatal(err)
	}
	unique, multi, unmapped := 0, 0, 0
	addUnique := func(read dna.Seq, fw, rc []int32) error {
		switch len(fw) + len(rc) {
		case 0:
			unmapped++
		case 1:
			unique++
			if len(fw) == 1 {
				return pile.AddRead(int(fw[0]), read)
			}
			return pile.AddRead(int(rc[0]), read.ReverseComplement())
		default:
			multi++
		}
		return nil
	}
	fm := ix.FM()
	for i, r := range reads {
		exact := run.Exact[i]
		if exact.Mapped() {
			fw, err := fm.Locate(exact.Forward)
			if err != nil {
				log.Fatal(err)
			}
			rc, err := fm.Locate(exact.Reverse)
			if err != nil {
				log.Fatal(err)
			}
			if err := addUnique(r.Seq, fw, rc); err != nil {
				log.Fatal(err)
			}
			continue
		}
		approx := run.Approx[i]
		var fw, rc []int32
		for _, m := range approx.Forward {
			ps, err := fm.Locate(m.Range)
			if err != nil {
				log.Fatal(err)
			}
			fw = append(fw, ps...)
		}
		for _, m := range approx.Reverse {
			ps, err := fm.Locate(m.Range)
			if err != nil {
				log.Fatal(err)
			}
			rc = append(rc, ps...)
		}
		if err := addUnique(r.Seq, fw, rc); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("reads: %d unique, %d multi-mapping, %d unmapped\n", unique, multi, unmapped)

	calls, err := variant.CallSNVs(ref, pile, variant.CallerConfig{MinDepth: 5, MinFraction: 0.75})
	if err != nil {
		log.Fatal(err)
	}
	tp, fp := 0, 0
	var missed []int
	for _, c := range calls {
		if truth[c.Pos] == c.Alt {
			tp++
		} else {
			fp++
		}
	}
	for pos := range truth {
		found := false
		for _, c := range calls {
			if c.Pos == pos && c.Alt == truth[pos] {
				found = true
			}
		}
		if !found {
			missed = append(missed, pos)
		}
	}
	sort.Ints(missed)
	fmt.Printf("called %d SNVs: %d true positives, %d false positives, %d missed\n",
		len(calls), tp, fp, len(missed))
	fmt.Printf("recall %.1f%%, precision %.1f%%\n",
		100*float64(tp)/float64(nSNVs), 100*float64(tp)/float64(max(tp+fp, 1)))
	for i, c := range calls {
		if i == 5 {
			fmt.Printf("  ... and %d more\n", len(calls)-5)
			break
		}
		fmt.Printf("  %v\n", c)
	}
	if tp < nSNVs*8/10 {
		log.Fatalf("recall too low: %d/%d", tp, nSNVs)
	}
}
