package readsim

import (
	"fmt"
	"math/rand"

	"bwaver/internal/dna"
)

// Paired-end simulation. Illumina-style sequencing reads both ends of a
// DNA fragment: R1 is the forward strand of the fragment's left end and R2
// the reverse complement of its right end (FR orientation). Mapping tools
// exploit the known fragment-length distribution to pair the two mates'
// hits; core.PairMates pairs the mates of these simulated pairs.

// PairConfig controls paired-end read simulation.
type PairConfig struct {
	// Count is the number of pairs.
	Count int
	// ReadLength is the length of each mate.
	ReadLength int
	// InsertMean and InsertStdDev describe the fragment (outer insert)
	// length distribution; InsertMean must be >= 2*ReadLength.
	InsertMean, InsertStdDev int
	// MappingRatio is the fraction of pairs drawn from the reference.
	MappingRatio float64
	// ErrorRate is the per-base substitution probability.
	ErrorRate float64
	// Seed makes generation reproducible.
	Seed int64
}

// Pair is one simulated read pair.
type Pair struct {
	ID string
	// R1 is the fragment's left end read on the forward strand; R2 is the
	// right end read on the reverse strand (stored reverse-complemented,
	// as sequencers emit it).
	R1, R2 dna.Seq
	// Origin is the fragment's leftmost reference position, -1 for random
	// pairs.
	Origin int
	// Insert is the fragment length (outer distance), 0 for random pairs.
	Insert int
	// Errors counts injected substitutions across both mates.
	Errors int
}

// SimulatePairs draws a paired-end read set from ref.
func SimulatePairs(ref dna.Seq, cfg PairConfig) ([]Pair, error) {
	if cfg.Count < 0 {
		return nil, fmt.Errorf("readsim: negative pair count %d", cfg.Count)
	}
	if cfg.ReadLength <= 0 {
		return nil, fmt.Errorf("readsim: read length %d must be positive", cfg.ReadLength)
	}
	if cfg.InsertMean < 2*cfg.ReadLength {
		return nil, fmt.Errorf("readsim: insert mean %d below twice the read length %d", cfg.InsertMean, cfg.ReadLength)
	}
	if cfg.InsertStdDev < 0 {
		return nil, fmt.Errorf("readsim: negative insert std dev %d", cfg.InsertStdDev)
	}
	if cfg.MappingRatio < 0 || cfg.MappingRatio > 1 {
		return nil, fmt.Errorf("readsim: mapping ratio %v outside [0,1]", cfg.MappingRatio)
	}
	if cfg.ErrorRate < 0 || cfg.ErrorRate >= 1 {
		return nil, fmt.Errorf("readsim: error rate %v outside [0,1)", cfg.ErrorRate)
	}
	maxInsert := cfg.InsertMean + 4*cfg.InsertStdDev
	if cfg.MappingRatio > 0 && maxInsert > len(ref) {
		return nil, fmt.Errorf("readsim: inserts up to %d exceed reference length %d", maxInsert, len(ref))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]Pair, cfg.Count)
	nMapped := int(float64(cfg.Count)*cfg.MappingRatio + 0.5)
	for i := range out {
		p := &out[i]
		p.ID = fmt.Sprintf("pair%08d", i)
		if i >= nMapped {
			p.Origin = -1
			p.R1 = randomSeq(rng, cfg.ReadLength)
			p.R2 = randomSeq(rng, cfg.ReadLength)
			continue
		}
		insert := cfg.InsertMean
		if cfg.InsertStdDev > 0 {
			insert += int(rng.NormFloat64() * float64(cfg.InsertStdDev))
		}
		if insert < 2*cfg.ReadLength {
			insert = 2 * cfg.ReadLength
		}
		if insert > len(ref) {
			insert = len(ref)
		}
		pos := rng.Intn(len(ref) - insert + 1)
		p.Origin = pos
		p.Insert = insert
		p.R1 = ref[pos : pos+cfg.ReadLength].Clone()
		p.R2 = ref[pos+insert-cfg.ReadLength : pos+insert].ReverseComplement()
		for _, mate := range []dna.Seq{p.R1, p.R2} {
			for j := range mate {
				if rng.Float64() < cfg.ErrorRate {
					mate[j] = dna.Base((int(mate[j]) + 1 + rng.Intn(3)) % dna.AlphabetSize)
					p.Errors++
				}
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

func randomSeq(rng *rand.Rand, n int) dna.Seq {
	s := make(dna.Seq, n)
	for i := range s {
		s[i] = dna.Base(rng.Intn(dna.AlphabetSize))
	}
	return s
}
