package fmindex

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// naiveApproxPositions returns every text position where pattern matches
// with at most k substitutions.
func naiveApproxPositions(text, pattern []uint8, k int) []int32 {
	var out []int32
	if len(pattern) == 0 {
		for i := 0; i <= len(text); i++ {
			out = append(out, int32(i))
		}
		return out
	}
	for i := 0; i+len(pattern) <= len(text); i++ {
		mm := 0
		for j := range pattern {
			if text[i+j] != pattern[j] {
				mm++
				if mm > k {
					break
				}
			}
		}
		if mm <= k {
			out = append(out, int32(i))
		}
	}
	return out
}

func TestCountApproxMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	text := buildText(rng, 2000)
	ix := buildWith(t, text,
		func(d []uint8) (OccProvider, error) { return NewWaveletOcc(d, 4, testParams) },
		fullSAOpts)
	for _, k := range []int{0, 1, 2} {
		for trial := 0; trial < 60; trial++ {
			var pattern []uint8
			if trial%2 == 0 {
				l := 8 + rng.Intn(15)
				s := rng.Intn(len(text) - l)
				pattern = append([]uint8(nil), text[s:s+l]...)
				// Mutate up to k positions so approximate search is needed.
				for m := 0; m < k && len(pattern) > 0; m++ {
					p := rng.Intn(len(pattern))
					pattern[p] = uint8((int(pattern[p]) + 1 + rng.Intn(3)) % 4)
				}
			} else {
				pattern = buildText(rng, 6+rng.Intn(10))
			}
			matches, _, err := ix.CountApproxSteps(nil, pattern, k)
			if err != nil {
				t.Fatal(err)
			}
			want := naiveApproxPositions(text, pattern, k)
			if got := TotalOccurrences(matches); got != len(want) {
				t.Fatalf("k=%d: %d occurrences, want %d (pattern %v)", k, got, len(want), pattern)
			}
			// Located positions must match the naive set exactly.
			var got []int32
			for _, m := range matches {
				ps, err := ix.Locate(m.Range)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, ps...)
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if len(got) != len(want) {
				t.Fatalf("k=%d: located %d, want %d", k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("k=%d: position %d = %d, want %d", k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestCountApproxZeroEqualsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	text := buildText(rng, 1000)
	ix := buildWith(t, text,
		func(d []uint8) (OccProvider, error) { return NewWaveletOcc(d, 4, testParams) },
		fullSAOpts)
	for trial := 0; trial < 30; trial++ {
		l := 5 + rng.Intn(15)
		s := rng.Intn(len(text) - l)
		pattern := text[s : s+l]
		matches, _, err := ix.CountApproxSteps(nil, pattern, 0)
		if err != nil {
			t.Fatal(err)
		}
		exact := ix.Count(pattern)
		if len(matches) != 1 || matches[0].Range != exact || matches[0].Mismatches != 0 {
			t.Fatalf("k=0 approx %v != exact %v", matches, exact)
		}
	}
}

func TestCountApproxStepsExceedExact(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	text := buildText(rng, 3000)
	ix := buildWith(t, text,
		func(d []uint8) (OccProvider, error) { return NewWaveletOcc(d, 4, testParams) },
		fullSAOpts)
	pattern := text[100:135]
	_, steps0, err := ix.CountApproxSteps(nil, pattern, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, steps1, err := ix.CountApproxSteps(nil, pattern, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, steps2, err := ix.CountApproxSteps(nil, pattern, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !(steps0 < steps1 && steps1 < steps2) {
		t.Errorf("steps not growing with budget: %d, %d, %d", steps0, steps1, steps2)
	}
	if steps0 < len(pattern) {
		t.Errorf("k=0 steps %d below pattern length %d", steps0, len(pattern))
	}
}

func TestCountApproxDisjointRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	text := buildText(rng, 2000)
	ix := buildWith(t, text,
		func(d []uint8) (OccProvider, error) { return NewWaveletOcc(d, 4, testParams) },
		fullSAOpts)
	pattern := text[50:70]
	matches, _, err := ix.CountApproxSteps(nil, pattern, 2)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]ApproxMatch(nil), matches...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Range.Start < sorted[j].Range.Start })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Range.Start <= sorted[i-1].Range.End {
			t.Fatalf("overlapping ranges %v and %v", sorted[i-1], sorted[i])
		}
	}
}

func TestCountApproxValidation(t *testing.T) {
	text := []uint8{0, 1, 2, 3}
	ix := buildWith(t, text,
		func(d []uint8) (OccProvider, error) { return NewFlatOcc(d, 4) },
		fullSAOpts)
	if _, _, err := ix.CountApproxSteps(nil, []uint8{0, 1}, -1); err == nil {
		t.Error("accepted negative budget")
	}
	if _, _, err := ix.CountApproxSteps(nil, []uint8{0, 1}, MaxMismatchBudget+1); err == nil {
		t.Error("accepted excessive budget")
	}
	// A symbol outside the alphabet is a forced substitution: 0 then 9
	// within one mismatch is 0 then any symbol, of which the text holds 01.
	got, _, err := ix.CountApproxSteps(nil, []uint8{0, 9}, 1)
	if want := []ApproxMatch{{Range: ix.Count([]uint8{0, 1}), Mismatches: 1}}; err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("out-of-alphabet symbol: %+v, %v; want %+v", got, err, want)
	}
	if got, _, err := ix.CountApproxSteps(nil, []uint8{0, 9}, 0); err != nil || len(got) != 0 {
		t.Errorf("out-of-alphabet symbol at k = 0: %+v, %v; want no match", got, err)
	}
}
