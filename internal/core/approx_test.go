package core

import (
	"math/rand"
	"testing"

	"bwaver/internal/dna"
)

func TestMapReadApproxRescuesMutation(t *testing.T) {
	ref := testGenome(t, 20000)
	ix := mustBuild(t, ref, IndexConfig{})
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		pos := rng.Intn(len(ref) - 40)
		read := ref[pos : pos+40].Clone()
		p := rng.Intn(40)
		read[p] = dna.Base((int(read[p]) + 1 + rng.Intn(3)) % 4)

		exact := ix.MapRead(read)
		if exact.Mapped() {
			continue // rare repeat coincidence; skip
		}
		res, err := ix.MapReadApprox(read, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Mapped() {
			t.Fatalf("trial %d: mutated read not rescued at k=1", trial)
		}
		if res.BestMismatches() != 1 {
			t.Fatalf("trial %d: best stratum %d, want 1", trial, res.BestMismatches())
		}
		// The planted origin must be among the located forward positions.
		found := false
		for _, m := range res.Forward {
			ps, err := ix.FM().Locate(m.Range)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range ps {
				if int(q) == pos {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("trial %d: origin %d not located", trial, pos)
		}
	}
}

func TestMapReadApproxReverseStrand(t *testing.T) {
	ref := testGenome(t, 10000)
	ix := mustBuild(t, ref, IndexConfig{})
	read := ref[500:540].ReverseComplement()
	read[3] = read[3].Complement() // one mismatch
	res, err := ix.MapReadApprox(read, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reverse) == 0 {
		t.Error("reverse-strand approximate match missed")
	}
	if res.Steps <= len(read) {
		t.Errorf("steps %d implausibly low for branching search", res.Steps)
	}
}

func TestMapReadApproxBudgetValidation(t *testing.T) {
	ref := testGenome(t, 2000)
	ix := mustBuild(t, ref, IndexConfig{})
	if _, err := ix.MapReadApprox(ref[0:20], -1); err == nil {
		t.Error("accepted negative budget")
	}
	if _, err := ix.MapReadApprox(ref[0:20], 99); err == nil {
		t.Error("accepted huge budget")
	}
}

func TestApproxResultAccessorsEmpty(t *testing.T) {
	var r ApproxResult
	if r.Mapped() || r.Occurrences() != 0 || r.BestMismatches() != -1 {
		t.Errorf("zero ApproxResult accessors wrong: %+v", r)
	}
}
