// Seed-and-extend: the workload the paper's introduction motivates — exact
// short-fragment mapping as the seeding stage of an aligner for longer,
// error-containing reads. Long reads (1 kbp, 2% substitution errors) are
// chopped into 24 bp seeds, the seeds are mapped exactly with BWaveR on the
// simulated FPGA, and candidate loci are extended on the host with banded
// Smith-Waterman (internal/align).
//
//	go run ./examples/seedextend
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"bwaver/internal/align"
	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/fmindex"
	"bwaver/internal/fpga"
	"bwaver/internal/readsim"
	"bwaver/internal/rrr"
)

const (
	genomeLen = 1_000_000
	nReads    = 60
	readLen   = 1000
	errorRate = 0.02
	seedLen   = 24
	seedStep  = 100 // one seed per 100 bp of read
	band      = 20
)

func main() {
	rng := rand.New(rand.NewSource(3))
	ref, err := readsim.Genome(readsim.GenomeConfig{
		Length: genomeLen, GC: 0.45, RepeatFraction: 0.2, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Long reads: reference windows with substitution errors.
	type longRead struct {
		seq    dna.Seq
		origin int
	}
	reads := make([]longRead, nReads)
	for i := range reads {
		pos := rng.Intn(genomeLen - readLen)
		seq := ref[pos : pos+readLen].Clone()
		for j := range seq {
			if rng.Float64() < errorRate {
				seq[j] = dna.Base(rng.Intn(4))
			}
		}
		reads[i] = longRead{seq: seq, origin: pos}
	}

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

	// Seeding: chop every read into fixed-stride seeds and batch-map them
	// on the device. This is exactly the role the paper assigns BWaveR in a
	// seed-and-extend pipeline.
	type seedRef struct{ read, offset int }
	var seeds []dna.Seq
	var meta []seedRef
	for ri, r := range reads {
		for off := 0; off+seedLen <= len(r.seq); off += seedStep {
			seeds = append(seeds, r.seq[off:off+seedLen])
			meta = append(meta, seedRef{read: ri, offset: off})
		}
	}
	run, err := kernel.MapReadsOpts(seeds, fpga.MapRunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := kernel.LocateResults(run.Results); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("seeded %d reads with %d seeds of %d bp: modeled device time %v\n",
		nReads, len(seeds), seedLen, run.Profile.Total().Round(time.Microsecond))

	// Extension: take the best-voted candidate locus per read and run
	// banded Smith-Waterman around it.
	extStart := time.Now()
	aligned, correct := 0, 0
	for ri, r := range reads {
		votes := map[int]int{} // candidate read-start locus -> seed votes
		for si, m := range meta {
			if m.read != ri {
				continue
			}
			for _, p := range run.Results[si].ForwardPositions {
				votes[int(p)-m.offset]++
			}
		}
		bestLocus, bestVotes := -1, 0
		for locus, v := range votes {
			if v > bestVotes && locus >= 0 {
				bestLocus, bestVotes = locus, v
			}
		}
		if bestLocus < 0 {
			continue
		}
		// Anchor the extension on the first seed hit consistent with the
		// chosen locus.
		res, err := align.ExtendSeed(r.seq, ref, 0, bestLocus, seedLen, band, align.DefaultScoring)
		if err != nil {
			log.Fatal(err)
		}
		if res.Score == 0 {
			continue
		}
		aligned++
		if bestLocus == r.origin {
			correct++
		}
		if ri < 3 {
			fmt.Printf("  read %d: locus %d (%d votes, truth %d), score %d, identity %.3f, cigar %.40s\n",
				ri, bestLocus, bestVotes, r.origin, res.Score, res.Identity(r.seq, ref), res.CIGAR())
		}
	}
	fmt.Printf("extension on host took %v\n", time.Since(extStart).Round(time.Millisecond))
	fmt.Printf("aligned %d/%d long reads, %d at the true locus\n", aligned, nReads, correct)
	if correct < nReads*9/10 {
		log.Fatalf("seed-and-extend accuracy too low: %d/%d", correct, nReads)
	}

	// Strategy 2: SMEM seeds (BWA-MEM style) on the bidirectional index —
	// adaptive-length seeds instead of fixed 24-mers. Each SMEM votes for
	// the loci its occurrences imply.
	fmt.Println("\nSMEM seeding (bidirectional index):")
	text := make([]uint8, len(ref))
	for i, b := range ref {
		text[i] = uint8(b)
	}
	biStart := time.Now()
	bi, err := fmindex.NewBiIndex(text, dna.AlphabetSize, rrr.DefaultParams)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bidirectional index built in %v\n", time.Since(biStart).Round(time.Millisecond))

	smemStart := time.Now()
	smemCorrect, totalSeeds := 0, 0
	for ri, r := range reads {
		pattern := make([]uint8, len(r.seq))
		for i, b := range r.seq {
			pattern[i] = uint8(b)
		}
		smems, err := bi.SMEMs(pattern, seedLen)
		if err != nil {
			log.Fatal(err)
		}
		totalSeeds += len(smems)
		votes := map[int]int{}
		for _, s := range smems {
			if s.Rows.Count() > 50 {
				continue // hyper-repetitive seed: skip, as real mappers do
			}
			positions, err := bi.Forward().Locate(s.Rows.Fwd)
			if err != nil {
				log.Fatal(err)
			}
			for _, p := range positions {
				// Weight votes by seed length: long unique SMEMs dominate.
				votes[int(p)-s.Start] += s.Len()
			}
		}
		bestLocus, bestVotes := -1, 0
		for locus, v := range votes {
			if v > bestVotes && locus >= 0 {
				bestLocus, bestVotes = locus, v
			}
		}
		if bestLocus == reads[ri].origin {
			smemCorrect++
		}
	}
	fmt.Printf("SMEM seeding: %.1f seeds/read, %d/%d at the true locus, took %v\n",
		float64(totalSeeds)/float64(nReads), smemCorrect, nReads,
		time.Since(smemStart).Round(time.Millisecond))
	if smemCorrect < correct {
		fmt.Println("note: fixed seeds beat SMEMs on this error profile")
	}
}
