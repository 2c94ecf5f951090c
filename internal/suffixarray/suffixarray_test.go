package suffixarray

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"bwaver/internal/readsim"
)

// buildNaive sorts suffixes directly; the ground truth for everything else.
func buildNaive(text []uint8) []int32 {
	n := len(text) + 1
	sa := make([]int32, n)
	for i := range sa {
		sa[i] = int32(i)
	}
	sort.Slice(sa, func(x, y int) bool {
		return compareSuffixes(text, int(sa[x]), int(sa[y])) < 0
	})
	return sa
}

func equalSA(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randomText(rng *rand.Rand, n, sigma int) []uint8 {
	t := make([]uint8, n)
	for i := range t {
		t[i] = uint8(rng.Intn(sigma))
	}
	return t
}

func TestBuildFixedCases(t *testing.T) {
	cases := []struct {
		text  string
		sigma int
	}{
		{"", 4},
		{"A", 4},
		{"AAAA", 4},
		{"ABAB", 4},
		{"BANANA", 26},
		{"MISSISSIPPI", 26},
		{"ACGTACGTACGT", 26},
		{"GATTACA", 26},
		{"ABRACADABRA", 26},
	}
	for _, tc := range cases {
		text := make([]uint8, len(tc.text))
		for i := range tc.text {
			text[i] = tc.text[i] - 'A'
		}
		want := buildNaive(text)
		got, err := Build(text, tc.sigma)
		if err != nil {
			t.Fatalf("Build(%q): %v", tc.text, err)
		}
		if !equalSA(got, want) {
			t.Errorf("Build(%q) = %v, want %v", tc.text, got, want)
		}
		if err := Validate(text, got); err != nil {
			t.Errorf("Validate(%q): %v", tc.text, err)
		}
		got2, err := BuildDoubling(text, tc.sigma)
		if err != nil {
			t.Fatalf("BuildDoubling(%q): %v", tc.text, err)
		}
		if !equalSA(got2, want) {
			t.Errorf("BuildDoubling(%q) = %v, want %v", tc.text, got2, want)
		}
	}
}

func TestBuildMatchesNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, sigma := range []int{1, 2, 4, 8, 250} {
		for _, n := range []int{0, 1, 2, 3, 10, 100, 500} {
			for rep := 0; rep < 5; rep++ {
				text := randomText(rng, n, sigma)
				want := buildNaive(text)
				got, err := Build(text, sigma)
				if err != nil {
					t.Fatalf("sigma=%d n=%d: %v", sigma, n, err)
				}
				if !equalSA(got, want) {
					t.Fatalf("sigma=%d n=%d rep=%d: SA-IS mismatch\ntext=%v\ngot= %v\nwant=%v",
						sigma, n, rep, text, got, want)
				}
			}
		}
	}
}

func TestBuildRepetitiveInputs(t *testing.T) {
	// Repetitive texts stress the recursion and LMS naming paths of SA-IS.
	patterns := [][]uint8{
		{0, 0, 0, 0, 0, 0, 0, 0},
		{0, 1, 0, 1, 0, 1, 0, 1, 0},
		{1, 0, 1, 0, 1, 0},
		{2, 1, 0, 2, 1, 0, 2, 1, 0},
		{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2},
		{3, 3, 2, 2, 1, 1, 0, 0},
	}
	for _, text := range patterns {
		// Tile each pattern to several lengths.
		for _, reps := range []int{1, 7, 33} {
			tiled := make([]uint8, 0, len(text)*reps)
			for r := 0; r < reps; r++ {
				tiled = append(tiled, text...)
			}
			got, err := Build(tiled, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !equalSA(got, buildNaive(tiled)) {
				t.Fatalf("SA-IS wrong on repetitive input %v x%d", text, reps)
			}
		}
	}
}

func TestBuildAgreementProperty(t *testing.T) {
	f := func(raw []byte) bool {
		text := make([]uint8, len(raw))
		for i, r := range raw {
			text[i] = r & 3
		}
		a, err1 := Build(text, 4)
		b, err2 := BuildDoubling(text, 4)
		return err1 == nil && err2 == nil && equalSA(a, b) && Validate(text, a) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestBuildLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	text := randomText(rng, 200000, 4)
	sa, err := Build(text, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Full O(n^2) validation is too slow; check the permutation property and
	// sorted order on sampled adjacent pairs.
	seen := make([]bool, len(sa))
	for _, p := range sa {
		if seen[p] {
			t.Fatal("duplicate SA entry")
		}
		seen[p] = true
	}
	for i := 1; i < len(sa); i += 173 {
		if compareSuffixes(text, int(sa[i-1]), int(sa[i])) >= 0 {
			t.Fatalf("suffixes out of order at rank %d", i)
		}
	}
	// Cross-check against the independent doubling implementation.
	sa2, err := BuildDoubling(text, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !equalSA(sa, sa2) {
		t.Fatal("SA-IS and doubling disagree on 200k random text")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build([]uint8{0, 4}, 4); err == nil {
		t.Error("accepted out-of-alphabet symbol")
	}
	if _, err := Build([]uint8(nil), 0); err == nil {
		t.Error("accepted sigma=0")
	}
	if _, err := Build([]uint8(nil), 300); err == nil {
		t.Error("accepted sigma>256")
	}
	if _, err := BuildDoubling([]uint8{9}, 4); err == nil {
		t.Error("doubling accepted out-of-alphabet symbol")
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	text := []uint8{0, 1, 2, 3, 0, 1}
	sa, err := Build(text, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(text, sa); err != nil {
		t.Fatalf("valid SA rejected: %v", err)
	}
	// Swap two entries.
	bad := append([]int32(nil), sa...)
	bad[2], bad[3] = bad[3], bad[2]
	if Validate(text, bad) == nil {
		t.Error("Validate accepted swapped entries")
	}
	// Duplicate an entry.
	bad = append([]int32(nil), sa...)
	bad[1] = bad[2]
	if Validate(text, bad) == nil {
		t.Error("Validate accepted duplicate entries")
	}
	// Wrong length.
	if Validate(text, sa[:len(sa)-1]) == nil {
		t.Error("Validate accepted truncated SA")
	}
	// Out-of-range entry.
	bad = append([]int32(nil), sa...)
	bad[4] = 99
	if Validate(text, bad) == nil {
		t.Error("Validate accepted out-of-range entry")
	}
}

// BenchmarkSuffixArrayAlgos reports each construction's rate in text bytes
// and its allocations, on 256 k random bases and — SA-IS only, doubling being
// a cross-check — on an E. coli-sized genome.
func BenchmarkSuffixArrayAlgos(b *testing.B) {
	small := randomText(rand.New(rand.NewSource(1)), 1<<18, 4)
	ecoli, err := readsim.EColiLike(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, algo := range []struct {
		name  string
		build func() ([]int32, error)
		bases int
	}{
		{"sais", func() ([]int32, error) { return Build(small, 4) }, len(small)},
		{"doubling", func() ([]int32, error) { return BuildDoubling(small, 4) }, len(small)},
		{"sais/ecoli", func() ([]int32, error) { return Build(ecoli, 4) }, len(ecoli)},
	} {
		b.Run(algo.name, func(b *testing.B) {
			b.SetBytes(int64(algo.bases))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := algo.build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestThreeAlgorithmsAgree: SA-IS, prefix doubling and the naive sort.
func TestThreeAlgorithmsAgree(t *testing.T) {
	f := func(raw []byte) bool {
		text := make([]uint8, len(raw))
		for i, r := range raw {
			text[i] = r & 3
		}
		a, err1 := Build(text, 4)
		b, err2 := BuildDoubling(text, 4)
		return err1 == nil && err2 == nil && equalSA(a, b) && equalSA(b, buildNaive(text))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
