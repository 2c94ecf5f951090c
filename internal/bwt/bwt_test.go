package bwt

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"bwaver/internal/suffixarray"
)

// naiveBWT builds the transform by sorting all rotations of text·$,
// returning the compact data and primary index.
func naiveBWT(text []uint8) ([]uint8, int) {
	n := len(text) + 1
	full := make([]int, n) // rotation start offsets
	for i := range full {
		full[i] = i
	}
	// symbol at position p of rotation r is t[(r+p) % n], sentinel = -1.
	at := func(r, p int) int {
		i := (r + p) % n
		if i == len(text) {
			return -1
		}
		return int(text[i])
	}
	sort.Slice(full, func(x, y int) bool {
		for p := 0; p < n; p++ {
			a, b := at(full[x], p), at(full[y], p)
			if a != b {
				return a < b
			}
		}
		return false
	})
	data := make([]uint8, 0, len(text))
	primary := -1
	for i, r := range full {
		c := at(r, n-1)
		if c == -1 {
			primary = i
		} else {
			data = append(data, uint8(c))
		}
	}
	return data, primary
}

func mustTransform(t *testing.T, text []uint8, sigma int) *BWT {
	t.Helper()
	sa, err := suffixarray.Build(text, sigma)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Transform(text, sa)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTransformMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{0, 1, 2, 7, 40, 200} {
		for rep := 0; rep < 4; rep++ {
			text := make([]uint8, n)
			for i := range text {
				text[i] = uint8(rng.Intn(4))
			}
			b := mustTransform(t, text, 4)
			wantData, wantPrimary := naiveBWT(text)
			if b.Primary != wantPrimary {
				t.Fatalf("n=%d: primary %d, want %d", n, b.Primary, wantPrimary)
			}
			if len(b.Data) != len(wantData) {
				t.Fatalf("n=%d: data length %d, want %d", n, len(b.Data), len(wantData))
			}
			for i := range wantData {
				if b.Data[i] != wantData[i] {
					t.Fatalf("n=%d: data[%d]=%d, want %d", n, i, b.Data[i], wantData[i])
				}
			}
		}
	}
}

func TestBananaBWT(t *testing.T) {
	// BWT("banana"+$) = "annb$aa": with $ removed, data="annbaa", primary=4.
	text := []uint8{1, 0, 13, 0, 13, 0} // b,a,n,a,n,a with a=0,b=1,n=13
	b := mustTransform(t, text, 26)
	want := []uint8{0, 13, 13, 1, 0, 0}
	if b.Primary != 4 {
		t.Errorf("primary = %d, want 4", b.Primary)
	}
	for i := range want {
		if b.Data[i] != want[i] {
			t.Errorf("data[%d] = %d, want %d", i, b.Data[i], want[i])
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		text := make([]uint8, len(raw))
		for i, r := range raw {
			text[i] = r & 3
		}
		sa, err := suffixarray.Build(text, 4)
		if err != nil {
			return false
		}
		b, err := Transform(text, sa)
		if err != nil {
			return false
		}
		back, err := b.Inverse(4)
		if err != nil {
			return false
		}
		if len(back) != len(text) {
			return false
		}
		for i := range text {
			if back[i] != text[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestInverseLargeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	text := make([]uint8, 100000)
	for i := range text {
		text[i] = uint8(rng.Intn(4))
	}
	b := mustTransform(t, text, 4)
	back, err := b.Inverse(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range text {
		if back[i] != text[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestInverseDetectsCorruption(t *testing.T) {
	text := []uint8{0, 1, 2, 3, 2, 1, 0, 2, 1, 3}
	b := mustTransform(t, text, 4)
	// A bad primary index must not round-trip silently.
	for _, badPrimary := range []int{-1, len(b.Data) + 1} {
		bad := &BWT{Data: b.Data, Primary: badPrimary}
		if _, err := bad.Inverse(4); err == nil {
			t.Errorf("Inverse accepted primary=%d", badPrimary)
		}
	}
	// Out-of-alphabet symbol.
	corrupt := append([]uint8(nil), b.Data...)
	corrupt[3] = 200
	if _, err := (&BWT{Data: corrupt, Primary: b.Primary}).Inverse(4); err == nil {
		t.Error("Inverse accepted out-of-alphabet symbol")
	}
}

func TestTransformErrors(t *testing.T) {
	text := []uint8{0, 1, 2}
	if _, err := Transform(text, []int32{0, 1, 2}); err == nil {
		t.Error("accepted short suffix array")
	}
	if _, err := Transform(text, []int32{3, 2, 1, 9}); err == nil {
		t.Error("accepted out-of-range suffix array entry")
	}
	if _, err := Transform(text, []int32{0, 0, 1, 2}); err == nil {
		t.Error("accepted duplicate zero entries")
	}
	if _, err := Transform(text, []int32{3, 2, 1, 1}); err == nil {
		t.Error("accepted suffix array without sentinel entry")
	}
	discard := func([]uint8) error { return nil }
	for _, sa := range [][]int32{{0, 1, 2}, {3, 2, 1, 9}, {0, 0, 1, 2}, {3, 2, 1, 1}} {
		if _, _, err := Stream(text, sa, make([]uint8, 2), discard); err == nil {
			t.Errorf("Stream accepted suffix array %v", sa)
		}
	}
	if _, _, err := Stream(text, []int32{3, 2, 1, 0}, nil, discard); err == nil {
		t.Error("Stream accepted an empty buffer")
	}
}

// TestStreamMatchesTransform: the chunks Stream emits, joined, are
// Transform's data, whatever the chunk size, with its primary index and run
// count; an emit error ends the walk.
func TestStreamMatchesTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 63, 64, 65, 300} {
		text := make([]uint8, n)
		for i := range text {
			text[i] = uint8(rng.Intn(3))
		}
		sa, err := suffixarray.Build(text, 4)
		if err != nil {
			t.Fatal(err)
		}
		want := mustTransform(t, text, 4)
		for _, chunk := range []int{1, 2, 7, 64, n + 1} {
			var got []uint8
			primary, runs, err := Stream(text, sa, make([]uint8, chunk), func(c []uint8) error {
				if len(c) == 0 || len(c) > chunk {
					t.Fatalf("n=%d chunk=%d: emitted %d symbols", n, chunk, len(c))
				}
				got = append(got, c...)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want.Data) || primary != want.Primary || runs != want.RunCount() {
				t.Fatalf("n=%d chunk=%d: Stream gave %v primary %d runs %d, Transform %v primary %d runs %d",
					n, chunk, got, primary, runs, want.Data, want.Primary, want.RunCount())
			}
		}
	}
	stop := errors.New("stop")
	text := []uint8{0, 1, 2, 3}
	if _, _, err := Stream(text, mustSA(t, text), make([]uint8, 1), func([]uint8) error { return stop }); err != stop {
		t.Errorf("Stream returned %v for an emit error", err)
	}
}

func mustSA(t *testing.T, text []uint8) []int32 {
	t.Helper()
	sa, err := suffixarray.Build(text, 4)
	if err != nil {
		t.Fatal(err)
	}
	return sa
}

func TestCompactPos(t *testing.T) {
	b := &BWT{Data: []uint8{0, 1, 2, 3}, Primary: 2}
	wants := map[int]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 5: 4}
	for full, want := range wants {
		if got := b.CompactPos(full); got != want {
			t.Errorf("CompactPos(%d) = %d, want %d", full, got, want)
		}
	}
}

func TestRunCountAndEntropy(t *testing.T) {
	b := &BWT{Data: []uint8{0, 0, 0, 1, 1, 2}, Primary: 0}
	if b.RunCount() != 3 {
		t.Errorf("RunCount = %d, want 3", b.RunCount())
	}
	empty := &BWT{Primary: 0}
	if empty.RunCount() != 0 || empty.Entropy(4) != 0 {
		t.Error("empty BWT should have 0 runs and 0 entropy")
	}
	uniform := &BWT{Data: []uint8{0, 1, 2, 3}, Primary: 0}
	if h := uniform.Entropy(4); math.Abs(h-2.0) > 1e-9 {
		t.Errorf("uniform entropy = %v, want 2.0", h)
	}
	if h := H0([]int{1, 1, 1, 1}); math.Abs(h-2.0) > 1e-9 {
		t.Errorf("H0 of uniform counts = %v, want 2.0", h)
	}
	if h := H0([]int{0, 0}); h != 0 {
		t.Errorf("H0 of no symbols = %v, want 0", h)
	}
	single := &BWT{Data: []uint8{1, 1, 1, 1}, Primary: 0}
	if h := single.Entropy(4); h != 0 {
		t.Errorf("single-symbol entropy = %v, want 0", h)
	}
}

// TestBWTLowersEntropyOfRepetitiveText exercises the property the whole
// design rests on: the BWT of repetitive text has long runs.
func TestBWTLowersEntropyOfRepetitiveText(t *testing.T) {
	pattern := []uint8{0, 1, 2, 3, 1, 0, 2}
	text := make([]uint8, 0, 7000)
	for len(text) < 7000 {
		text = append(text, pattern...)
	}
	b := mustTransform(t, text, 4)
	if b.RunCount() >= len(text)/10 {
		t.Errorf("BWT of repetitive text has %d runs over %d symbols; expected heavy run structure",
			b.RunCount(), len(text))
	}
}
