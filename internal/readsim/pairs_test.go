package readsim

import (
	"math"
	"slices"
	"testing"
)

func TestSimulatePairsTruth(t *testing.T) {
	ref, err := Genome(GenomeConfig{Length: 30000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := SimulatePairs(ref, PairConfig{
		Count: 400, ReadLength: 50, InsertMean: 300, InsertStdDev: 25,
		MappingRatio: 0.75, Seed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 400 {
		t.Fatalf("%d pairs", len(pairs))
	}
	mapped := 0
	var insertSum float64
	for _, p := range pairs {
		if len(p.R1) != 50 || len(p.R2) != 50 {
			t.Fatalf("pair %s mate lengths %d/%d", p.ID, len(p.R1), len(p.R2))
		}
		if p.Origin < 0 {
			if p.Insert != 0 {
				t.Errorf("random pair %s has insert %d", p.ID, p.Insert)
			}
			continue
		}
		mapped++
		insertSum += float64(p.Insert)
		// R1 is the fragment's left end, forward strand.
		if !slices.Equal(p.R1, ref[p.Origin:p.Origin+50]) {
			t.Fatalf("pair %s R1 mismatch", p.ID)
		}
		// R2 is the right end, reverse strand.
		right := ref[p.Origin+p.Insert-50 : p.Origin+p.Insert]
		if !slices.Equal(p.R2.ReverseComplement(), right) {
			t.Fatalf("pair %s R2 mismatch", p.ID)
		}
		if p.Insert < 100 || p.Origin+p.Insert > len(ref) {
			t.Fatalf("pair %s insert %d out of range", p.ID, p.Insert)
		}
	}
	if mapped != 300 {
		t.Errorf("%d mapped pairs, want 300", mapped)
	}
	if mean := insertSum / float64(mapped); math.Abs(mean-300) > 10 {
		t.Errorf("mean insert %v, want ~300", mean)
	}
}

func TestSimulatePairsWithErrors(t *testing.T) {
	ref, err := Genome(GenomeConfig{Length: 20000, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := SimulatePairs(ref, PairConfig{
		Count: 300, ReadLength: 60, InsertMean: 250, MappingRatio: 1,
		ErrorRate: 0.01, Seed: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	totalErrors := 0
	for _, p := range pairs {
		totalErrors += p.Errors
		// Hamming distance across both mates must equal the error count.
		mm := 0
		left := ref[p.Origin : p.Origin+60]
		right := ref[p.Origin+p.Insert-60 : p.Origin+p.Insert]
		r2 := p.R2.ReverseComplement()
		for i := 0; i < 60; i++ {
			if p.R1[i] != left[i] {
				mm++
			}
			if r2[i] != right[i] {
				mm++
			}
		}
		if mm != p.Errors {
			t.Fatalf("pair %s: %d errors recorded, %d observed", p.ID, p.Errors, mm)
		}
	}
	// ~1.2 errors per pair on average (120 bases at 1%).
	mean := float64(totalErrors) / 300
	if mean < 0.6 || mean > 2.0 {
		t.Errorf("mean errors per pair %v, want ~1.2", mean)
	}
}

func TestSimulatePairsDeterminism(t *testing.T) {
	ref, _ := Genome(GenomeConfig{Length: 10000, Seed: 25})
	cfg := PairConfig{Count: 50, ReadLength: 40, InsertMean: 200, MappingRatio: 0.5, Seed: 26}
	a, err := SimulatePairs(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulatePairs(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !slices.Equal(a[i].R1, b[i].R1) || !slices.Equal(a[i].R2, b[i].R2) || a[i].Origin != b[i].Origin {
			t.Fatal("same seed produced different pairs")
		}
	}
}

func TestSimulatePairsUniqueIDs(t *testing.T) {
	ref, _ := Genome(GenomeConfig{Length: 5000, Seed: 27})
	pairs, err := SimulatePairs(ref, PairConfig{Count: 100, ReadLength: 30, InsertMean: 100, MappingRatio: 1, Seed: 28})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range pairs {
		if seen[p.ID] {
			t.Fatalf("duplicate pair ID %q", p.ID)
		}
		seen[p.ID] = true
	}
}

func TestSimulatePairsInsertClamping(t *testing.T) {
	// Huge std dev: inserts must stay within [2*readLen, len(ref)].
	ref, _ := Genome(GenomeConfig{Length: 2000, Seed: 29})
	pairs, err := SimulatePairs(ref, PairConfig{
		Count: 200, ReadLength: 50, InsertMean: 150, InsertStdDev: 100, MappingRatio: 1, Seed: 30,
	})
	if err == nil {
		for _, p := range pairs {
			if p.Insert < 100 || p.Insert > 2000 {
				t.Fatalf("insert %d out of bounds", p.Insert)
			}
		}
	}
	// (The config may also be rejected because mean+4sd exceeds the
	// reference; both behaviours are acceptable for this stress case.)
}
