package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bwaver/internal/dna"
	"bwaver/internal/readsim"
)

func simPairs(t *testing.T, ref dna.Seq, count int, ratio float64) []readsim.Pair {
	t.Helper()
	pairs, err := readsim.SimulatePairs(ref, readsim.PairConfig{
		Count: count, ReadLength: 50, InsertMean: 300, InsertStdDev: 20,
		MappingRatio: ratio, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

// pairMates maps both mates with located positions and pairs them.
func pairMates(t testing.TB, ix *Index, r1, r2 dna.Seq, opts PairOptions) ([]PairPlacement, bool) {
	t.Helper()
	res := make([]MapResult, 2)
	if _, err := ix.MapReadsInto(res, []dna.Seq{r1, r2}, MapOptions{Locate: true}); err != nil {
		t.Fatal(err)
	}
	return PairMates(res[0], res[1], len(r1), len(r2), opts)
}

func TestMapPairsConcordantTruth(t *testing.T) {
	ref := testGenome(t, 50000)
	pairs := simPairs(t, ref, 200, 1)
	ix := mustBuild(t, ref, IndexConfig{})
	for _, p := range pairs {
		placements, ambiguous := pairMates(t, ix, p.R1, p.R2, PairOptions{MinInsert: 150, MaxInsert: 450})
		if len(placements) == 0 || ambiguous {
			t.Fatalf("planted pair %s (origin %d, insert %d) not concordant", p.ID, p.Origin, p.Insert)
		}
		// The true placement must be among the reported ones.
		found := false
		for _, pl := range placements {
			if int(pl.Pos) == p.Origin && pl.Insert == p.Insert && pl.R1Forward {
				found = true
			}
		}
		if !found {
			t.Fatalf("pair %s: truth (pos %d, insert %d) missing from %+v",
				p.ID, p.Origin, p.Insert, placements)
		}
	}
}

func TestMapPairsRandomPairsDiscordant(t *testing.T) {
	ref := testGenome(t, 30000)
	pairs := simPairs(t, ref, 100, 0) // all random
	ix := mustBuild(t, ref, IndexConfig{})
	for _, p := range pairs {
		if placements, ambiguous := pairMates(t, ix, p.R1, p.R2, PairOptions{MinInsert: 150, MaxInsert: 450}); len(placements) > 0 || ambiguous {
			t.Fatalf("random pair %s placed: %+v (ambiguous %t)", p.ID, placements, ambiguous)
		}
	}
}

func TestMapPairMirrorOrientation(t *testing.T) {
	// Swap R1/R2: the pair is still concordant, in the mirrored
	// arrangement (R1Forward == false).
	ref := testGenome(t, 20000)
	pairs := simPairs(t, ref, 20, 1)
	ix := mustBuild(t, ref, IndexConfig{})
	for _, p := range pairs {
		placements, _ := pairMates(t, ix, p.R2, p.R1, PairOptions{MinInsert: 150, MaxInsert: 450})
		if len(placements) == 0 {
			t.Fatalf("swapped pair %s not concordant", p.ID)
		}
		found := false
		for _, pl := range placements {
			if int(pl.Pos) == p.Origin && !pl.R1Forward {
				found = true
			}
		}
		if !found {
			t.Fatalf("swapped pair %s: mirrored placement missing", p.ID)
		}
	}
}

func TestMapPairInsertWindowFilters(t *testing.T) {
	ref := testGenome(t, 20000)
	pairs := simPairs(t, ref, 30, 1) // inserts ~300 +/- 20
	ix := mustBuild(t, ref, IndexConfig{})
	for _, p := range pairs {
		// A window excluding ~300 must reject the true placement.
		placements, _ := pairMates(t, ix, p.R1, p.R2, PairOptions{MinInsert: 500, MaxInsert: 600})
		for _, pl := range placements {
			if pl.Insert < 500 || pl.Insert > 600 {
				t.Fatalf("placement outside window: %+v", pl)
			}
		}
	}
}

func TestMapPairAmbiguousCap(t *testing.T) {
	// A reference of a single repeated unit makes every mate map about a
	// thousand times, past the cap.
	unit := dna.MustParseSeq("ACGTTGCA")
	ref := make(dna.Seq, 0, 8000)
	for len(ref) < 8000 {
		ref = append(ref, unit...)
	}
	ix := mustBuild(t, ref, IndexConfig{})
	placements, ambiguous := pairMates(t, ix, ref[0:16], ref[100:116].ReverseComplement(), PairOptions{MinInsert: 50, MaxInsert: 200})
	if !ambiguous || len(placements) > 0 {
		t.Errorf("repetitive pair not flagged ambiguous: %+v (ambiguous %t)", placements, ambiguous)
	}
}

func TestMapPairsValidation(t *testing.T) {
	for _, o := range []PairOptions{{MinInsert: 200, MaxInsert: 100}, {MinInsert: -1, MaxInsert: 100}} {
		if o.Validate() == nil {
			t.Errorf("accepted insert window %+v", o)
		}
	}
	if err := (PairOptions{MinInsert: 100, MaxInsert: 100}).Validate(); err != nil {
		t.Errorf("refused a one-length window: %v", err)
	}
}

func TestSimulatePairsValidation(t *testing.T) {
	ref := testGenome(t, 5000)
	bad := []readsim.PairConfig{
		{Count: -1, ReadLength: 50, InsertMean: 300},
		{Count: 5, ReadLength: 0, InsertMean: 300},
		{Count: 5, ReadLength: 50, InsertMean: 80},
		{Count: 5, ReadLength: 50, InsertMean: 300, InsertStdDev: -1},
		{Count: 5, ReadLength: 50, InsertMean: 300, MappingRatio: 2},
		{Count: 5, ReadLength: 50, InsertMean: 300, ErrorRate: 1},
		{Count: 5, ReadLength: 50, InsertMean: 6000, MappingRatio: 1},
	}
	for _, cfg := range bad {
		if _, err := readsim.SimulatePairs(ref, cfg); err != nil {
			continue
		}
		t.Errorf("SimulatePairs(%+v) accepted invalid config", cfg)
	}
}

// FuzzPairPlacements checks PairMates against a naive scan on small random
// references, with repeats and one to three records: every exact occurrence
// of each mate and of its reverse complement found by brute force, every
// (left, right) pairing of both FR orientations whose insert lies in the
// window (both edges inclusive), the ambiguity cap, and the same sort. The
// records only cut the reference: a placement straddling two of them is
// core's to report and the row encoder's to drop.
func FuzzPairPlacements(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(20), uint8(20), uint16(40), uint16(150), uint16(100), uint16(100), false)
	f.Add(int64(2), uint8(2), uint8(12), uint8(9), uint16(300), uint16(90), uint16(0), uint16(400), true)
	f.Add(int64(3), uint8(1), uint8(3), uint8(2), uint16(7), uint16(20), uint16(0), uint16(30), false)
	f.Add(int64(4), uint8(1), uint8(6), uint8(6), uint16(0), uint16(12), uint16(12), uint16(0), true)
	f.Fuzz(func(t *testing.T, seed int64, records, len1, len2 uint8, start, insert, minInsert, window uint16, swap bool) {
		rng := rand.New(rand.NewSource(seed))
		ref := fuzzReference(rng)
		ix, err := BuildIndex(ref, IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		n := len(ref)
		if recs := 1 + int(records%3); recs > 1 {
			names, lengths := make([]string, recs), make([]int, recs)
			for i := range names {
				names[i], lengths[i] = fmt.Sprint("chr", i), n/recs
			}
			lengths[recs-1] += n % recs
			cs, err := NewContigSet(names, lengths)
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.SetContigs(cs); err != nil {
				t.Fatal(err)
			}
		}
		// Mates of a fragment [p, end): R1 its head, R2 the reverse complement
		// of its tail; a fragment past the reference's end leaves R2 random.
		l1, l2 := 1+int(len1)%40, 1+int(len2)%40
		p := int(start) % (n - l1)
		r1 := slices.Clone(ref[p : p+l1])
		end := p + int(insert)%400
		r2 := make(dna.Seq, l2)
		if end >= l2 && end <= n {
			copy(r2, ref[end-l2:end])
			r2 = r2.ReverseComplement()
		} else {
			for i := range r2 {
				r2[i] = dna.Base(rng.Intn(4))
			}
		}
		if swap {
			r1, r2 = r2, r1
		}
		opts := PairOptions{MinInsert: int(minInsert) % 300}
		opts.MaxInsert = opts.MinInsert + int(window)%300
		got, ambiguous := pairMates(t, ix, r1, r2, opts)
		want, wantAmbiguous := naivePairs(ref, r1, r2, opts)
		if ambiguous != wantAmbiguous || !slices.Equal(got, want) {
			t.Fatalf("r1 %v r2 %v window [%d,%d]: got %+v (ambiguous %t), want %+v (ambiguous %t)",
				r1, r2, opts.MinInsert, opts.MaxInsert, got, ambiguous, want, wantAmbiguous)
		}
	})
}

// fuzzReference is a random reference of 64 to 1 263 bases built from
// random runs, copies of earlier stretches and short tandem repeats, so that
// short mates occur many times, some past PairMaxHits.
func fuzzReference(rng *rand.Rand) dna.Seq {
	n := 64 + rng.Intn(1200)
	ref := make(dna.Seq, 0, n+64)
	for len(ref) < n {
		switch k := 1 + rng.Intn(64); {
		case rng.Intn(3) == 0 && len(ref) > k:
			at := rng.Intn(len(ref) - k)
			ref = append(ref, ref[at:at+k]...)
		case rng.Intn(2) == 0:
			unit := 1 + rng.Intn(4)
			for i := 0; i < 4*k; i++ {
				ref = append(ref, dna.Base((i%unit*7+unit)%4))
			}
		default:
			for i := 0; i < k; i++ {
				ref = append(ref, dna.Base(rng.Intn(4)))
			}
		}
	}
	return ref[:n]
}

// naivePairs is the oracle of PairMates.
func naivePairs(ref, r1, r2 dna.Seq, opts PairOptions) ([]PairPlacement, bool) {
	occurrences := func(pat dna.Seq) []int32 {
		var ps []int32
		for i := 0; i+len(pat) <= len(ref); i++ {
			if slices.Equal(ref[i:i+len(pat)], pat) {
				ps = append(ps, int32(i))
			}
		}
		return ps
	}
	r1F, r1R := occurrences(r1), occurrences(r1.ReverseComplement())
	r2F, r2R := occurrences(r2), occurrences(r2.ReverseComplement())
	if len(r1F)+len(r1R) == 0 || len(r2F)+len(r2R) == 0 {
		return nil, false
	}
	if len(r1F)+len(r1R) > PairMaxHits || len(r2F)+len(r2R) > PairMaxHits {
		return nil, true
	}
	var out []PairPlacement
	for _, arr := range []struct {
		lefts, rights []int32
		rightLen      int
		r1Forward     bool
	}{{r1F, r2R, len(r2), true}, {r2F, r1R, len(r1), false}} {
		for _, l := range arr.lefts {
			for _, r := range arr.rights {
				if insert := int(r) + arr.rightLen - int(l); insert >= opts.MinInsert && insert <= opts.MaxInsert {
					out = append(out, PairPlacement{Pos: l, Insert: insert, R1Forward: arr.r1Forward})
				}
			}
		}
	}
	slices.SortStableFunc(out, func(a, b PairPlacement) int {
		return cmp.Or(cmp.Compare(a.Pos, b.Pos), cmp.Compare(a.Insert, b.Insert))
	})
	return out, false
}
