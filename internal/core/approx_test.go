package core

import (
	"math/rand"
	"testing"

	"bwaver/internal/dna"
	"bwaver/internal/fmindex"
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
	// An unmapped result: both exact ranges empty (a zero Range is row 0), no
	// strata.
	none := fmindex.Range{Start: 1, End: 0}
	r := ApproxResult{Exact: MapResult{Forward: none, Reverse: none}}
	if r.Mapped() || r.Occurrences() != 0 || r.BestMismatches() != -1 {
		t.Errorf("unmapped ApproxResult accessors wrong: %+v", r)
	}
}

// TestMapReadApproxExactFirst pins the workload's semantics: a read that
// occurs exactly answers with its exact hits and never enters the branching
// search, however many in-budget neighbours it has — the 7-vs-1 8-mer the
// two backends used to disagree on.
func TestMapReadApproxExactFirst(t *testing.T) {
	ref := testGenome(t, 20000)
	ix := mustBuild(t, ref, IndexConfig{})
	read := ref[1000:1008]
	exact := ix.MapRead(read)
	neighbours, err := ix.FM().CountApprox(patternOf(read), 1)
	if err != nil {
		t.Fatal(err)
	}
	if fmindex.TotalOccurrences(neighbours) <= exact.Forward.Count() {
		t.Fatalf("8-mer has no in-budget neighbours beyond its %d exact hits; pick another", exact.Forward.Count())
	}
	res, err := ix.MapReadApprox(read, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact.Forward != exact.Forward || res.Exact.Reverse != exact.Reverse || res.Exact.Steps != exact.Steps {
		t.Errorf("pass 1 = %+v, MapRead = %+v", res.Exact, exact)
	}
	if len(res.Forward) != 0 || len(res.Reverse) != 0 || res.Steps != 0 {
		t.Errorf("pass 2 ran for an exact hit: %+v", res)
	}
	if !res.Mapped() || res.BestMismatches() != 0 || res.Occurrences() != exact.Occurrences() {
		t.Errorf("accessors: mapped %t, best %d, occurrences %d; want true, 0, %d",
			res.Mapped(), res.BestMismatches(), res.Occurrences(), exact.Occurrences())
	}
}
