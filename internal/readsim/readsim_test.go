package readsim

import (
	"math"
	"slices"
	"strings"
	"testing"

	"bwaver/internal/dna"
)

func TestGenomeLengthAndDeterminism(t *testing.T) {
	cfg := GenomeConfig{Length: 10000, GC: 0.5, RepeatFraction: 0.2, Seed: 42}
	a, err := Genome(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 10000 {
		t.Fatalf("length %d, want 10000", len(a))
	}
	b, err := Genome(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a, b) {
		t.Error("same seed produced different genomes")
	}
	c, err := Genome(GenomeConfig{Length: 10000, GC: 0.5, RepeatFraction: 0.2, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(a, c) {
		t.Error("different seeds produced identical genomes")
	}
}

func TestGenomeGCContent(t *testing.T) {
	for _, gc := range []float64{0.3, 0.5, 0.7} {
		g, err := Genome(GenomeConfig{Length: 200000, GC: gc, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := gcContent(g); math.Abs(got-gc) > 0.02 {
			t.Errorf("GC target %v, measured %v", gc, got)
		}
	}
}

func TestGenomeValidation(t *testing.T) {
	bad := []GenomeConfig{
		{Length: -1},
		{Length: 10, GC: 1.5},
		{Length: 10, GC: -0.1},
		{Length: 10, RepeatFraction: 1.0},
		{Length: 10, RepeatFraction: -0.2},
	}
	for _, cfg := range bad {
		if _, err := Genome(cfg); err == nil {
			t.Errorf("Genome(%+v) accepted invalid config", cfg)
		}
	}
	g, err := Genome(GenomeConfig{Length: 0, Seed: 1})
	if err != nil || len(g) != 0 {
		t.Errorf("zero-length genome: %v %v", g, err)
	}
}

func TestRepeatsIncreaseSelfSimilarity(t *testing.T) {
	// Count distinct 16-mers: a repeat-rich genome has fewer.
	distinct := func(g dna.Seq) int {
		seen := make(map[string]struct{})
		s := g.String()
		for i := 0; i+16 <= len(s); i += 4 {
			seen[s[i:i+16]] = struct{}{}
		}
		return len(seen)
	}
	plain, err := Genome(GenomeConfig{Length: 150000, Seed: 7, RepeatFraction: 0})
	if err != nil {
		t.Fatal(err)
	}
	repeaty, err := Genome(GenomeConfig{Length: 150000, Seed: 7, RepeatFraction: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if distinct(repeaty) >= distinct(plain) {
		t.Errorf("repeats did not reduce distinct k-mers: %d vs %d", distinct(repeaty), distinct(plain))
	}
}

func TestPaperScalePresets(t *testing.T) {
	e, err := EColiLike(1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(e) != EColiLength/100 {
		t.Errorf("EColiLike scale: %d, want %d", len(e), EColiLength/100)
	}
	c, err := Chr21Like(1, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	scale := 0.001
	wantLen := int(float64(Chr21Length) * scale)
	if len(c) != wantLen {
		t.Errorf("Chr21Like scale: %d", len(c))
	}
	if _, err := EColiLike(1, 0); err == nil {
		t.Error("accepted scale 0")
	}
	if _, err := EColiLike(1, 1.5); err == nil {
		t.Error("accepted scale > 1")
	}
}

func TestSimulateMappingRatio(t *testing.T) {
	ref, err := Genome(GenomeConfig{Length: 50000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, ratio := range []float64{0, 0.25, 0.5, 1} {
		reads, err := Simulate(ref, ReadsConfig{Count: 1000, Length: 50, MappingRatio: ratio, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		mapped := 0
		for _, r := range reads {
			if len(r.Seq) != 50 {
				t.Fatalf("read length %d, want 50", len(r.Seq))
			}
			if r.Origin >= 0 {
				mapped++
				// Forward-strand reads must be exact substrings.
				if !r.RevStrand {
					if !slices.Equal(r.Seq, ref[r.Origin:r.Origin+50]) {
						t.Fatal("mapped forward read is not a reference substring")
					}
				} else if !slices.Equal(r.Seq.ReverseComplement(), ref[r.Origin:r.Origin+50]) {
					t.Fatal("mapped reverse read does not reverse-complement to the reference")
				}
			}
		}
		want := int(1000*ratio + 0.5)
		if mapped != want {
			t.Errorf("ratio %v: %d mapped reads, want %d", ratio, mapped, want)
		}
	}
}

func TestSimulateRevCompFraction(t *testing.T) {
	ref, _ := Genome(GenomeConfig{Length: 20000, Seed: 5})
	reads, err := Simulate(ref, ReadsConfig{Count: 2000, Length: 40, MappingRatio: 1, RevCompFraction: 0.5, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	rev := 0
	for _, r := range reads {
		if r.RevStrand {
			rev++
		}
	}
	if rev < 800 || rev > 1200 {
		t.Errorf("reverse-strand count %d outside [800,1200] for fraction 0.5", rev)
	}
}

func TestSimulateUniqueIDs(t *testing.T) {
	ref, _ := Genome(GenomeConfig{Length: 1000, Seed: 1})
	reads, err := Simulate(ref, ReadsConfig{Count: 500, Length: 20, MappingRatio: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range reads {
		if seen[r.ID] {
			t.Fatalf("duplicate read ID %q", r.ID)
		}
		if !strings.HasPrefix(r.ID, "read") {
			t.Fatalf("unexpected ID format %q", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestSimulateValidation(t *testing.T) {
	ref, _ := Genome(GenomeConfig{Length: 100, Seed: 1})
	bad := []ReadsConfig{
		{Count: -1, Length: 10},
		{Count: 10, Length: 0},
		{Count: 10, Length: 10, MappingRatio: 1.5},
		{Count: 10, Length: 10, MappingRatio: -0.5},
		{Count: 10, Length: 10, MappingRatio: 0.5, RevCompFraction: 2},
		{Count: 10, Length: 200, MappingRatio: 1}, // longer than ref
	}
	for _, cfg := range bad {
		if _, err := Simulate(ref, cfg); err == nil {
			t.Errorf("Simulate(%+v) accepted invalid config", cfg)
		}
	}
	// Reads longer than the reference are fine when nothing has to map.
	if _, err := Simulate(ref, ReadsConfig{Count: 5, Length: 200, MappingRatio: 0}); err != nil {
		t.Errorf("unmapped long reads rejected: %v", err)
	}
}

func TestSeqs(t *testing.T) {
	ref, _ := Genome(GenomeConfig{Length: 1000, Seed: 1})
	reads, _ := Simulate(ref, ReadsConfig{Count: 10, Length: 20, MappingRatio: 1, Seed: 4})
	seqs := Seqs(reads)
	if len(seqs) != 10 {
		t.Fatalf("Seqs returned %d, want 10", len(seqs))
	}
	for i := range seqs {
		if !slices.Equal(seqs[i], reads[i].Seq) {
			t.Fatal("Seqs order mismatch")
		}
	}
}

func TestSimulateDeterminism(t *testing.T) {
	ref, _ := Genome(GenomeConfig{Length: 5000, Seed: 1})
	cfg := ReadsConfig{Count: 100, Length: 30, MappingRatio: 0.7, RevCompFraction: 0.5, Seed: 77}
	a, _ := Simulate(ref, cfg)
	b, _ := Simulate(ref, cfg)
	for i := range a {
		if !slices.Equal(a[i].Seq, b[i].Seq) || a[i].Origin != b[i].Origin {
			t.Fatal("same seed produced different read sets")
		}
	}
}

func TestSimulateErrorRate(t *testing.T) {
	ref, _ := Genome(GenomeConfig{Length: 30000, Seed: 6})
	reads, err := Simulate(ref, ReadsConfig{
		Count: 1000, Length: 100, MappingRatio: 1, ErrorRate: 0.02, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	totalErrors := 0
	for _, r := range reads {
		totalErrors += r.Errors
		// The recorded error count must equal the Hamming distance to the
		// originating window (on the correct strand).
		window := ref[r.Origin : r.Origin+100]
		seq := r.Seq
		if r.RevStrand {
			seq = seq.ReverseComplement()
		}
		mm := 0
		for j := range window {
			if window[j] != seq[j] {
				mm++
			}
		}
		if mm != r.Errors {
			t.Fatalf("read %s: recorded %d errors, Hamming distance %d", r.ID, r.Errors, mm)
		}
	}
	// Expect ~2 errors per 100 bp read; allow generous slack.
	mean := float64(totalErrors) / 1000
	if mean < 1.2 || mean > 2.8 {
		t.Errorf("mean errors per read %v, want ~2", mean)
	}
}

func TestSimulateErrorRateZeroExact(t *testing.T) {
	ref, _ := Genome(GenomeConfig{Length: 5000, Seed: 7})
	reads, err := Simulate(ref, ReadsConfig{Count: 200, Length: 50, MappingRatio: 1, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reads {
		if r.Errors != 0 {
			t.Fatalf("read %s has %d errors at rate 0", r.ID, r.Errors)
		}
	}
}

func TestSimulateErrorRateValidation(t *testing.T) {
	ref, _ := Genome(GenomeConfig{Length: 1000, Seed: 1})
	for _, rate := range []float64{-0.1, 1.0, 2.0} {
		if _, err := Simulate(ref, ReadsConfig{Count: 5, Length: 10, ErrorRate: rate}); err == nil {
			t.Errorf("accepted error rate %v", rate)
		}
	}
}

// gcContent returns the fraction of G and C bases in s.
func gcContent(s dna.Seq) float64 {
	gc := 0
	for _, b := range s {
		if b == dna.C || b == dna.G {
			gc++
		}
	}
	return float64(gc) / float64(len(s))
}
