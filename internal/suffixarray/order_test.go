package suffixarray

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"bwaver/internal/readsim"
)

// checkAllAgree builds text's suffix array with both constructions and holds
// SA-IS's to prefix doubling's and, when the text is short enough to sort
// directly, to the naive order.
func checkAllAgree(t *testing.T, name string, text []uint8, sigma int) {
	t.Helper()
	got, err := Build(text, sigma)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	doubling, err := BuildDoubling(text, sigma)
	if err != nil {
		t.Fatalf("%s: doubling: %v", name, err)
	}
	if !equalSA(got, doubling) {
		t.Fatalf("%s (n=%d sigma=%d): SA-IS and doubling disagree", name, len(text), sigma)
	}
	if len(text) <= 4096 && !equalSA(got, buildNaive(text)) {
		t.Fatalf("%s (n=%d sigma=%d): SA-IS and the naive sort disagree\ntext=%v\ngot= %v", name, len(text), sigma, text, got)
	}
}

func tile(pattern []uint8, n int) []uint8 {
	out := make([]uint8, n)
	for i := range out {
		out[i] = pattern[i%len(pattern)]
	}
	return out
}

// fibonacci returns the first n symbols of the Fibonacci word over {0, 1}.
func fibonacci(n int) []uint8 {
	a, b := []uint8{0}, []uint8{0, 1}
	for len(b) < n {
		a, b = b, append(append([]uint8{}, b...), a...)
	}
	return b[:n]
}

// thueMorse returns the first n symbols of the Thue-Morse word.
func thueMorse(n int) []uint8 {
	out := make([]uint8, n)
	for i := range out {
		out[i] = out[i/2] ^ uint8(i&1)
	}
	return out
}

// plantedRepeats is random DNA in which long stretches are copies of earlier
// ones, so that equal LMS-substrings survive several rounds of renaming.
func plantedRepeats(rng *rand.Rand, n int) []uint8 {
	text := randomText(rng, n, 4)
	for r := 0; r < 6; r++ {
		l := n / 8
		src, dst := rng.Intn(n-l), rng.Intn(n-l)
		copy(text[dst:dst+l], text[src:src+l])
	}
	return text
}

// recursionLevels counts, with nothing but sorting, how many times SA-IS must
// recurse on text: once for every level whose LMS-substrings are not all
// distinct. It renames them exactly as the algorithm defines — equal symbols
// and equal types, up to and including the next LMS position — and repeats on
// the text of names.
func recursionLevels(text []int32) int {
	n := len(text)
	isS := make([]bool, n+1)
	isS[n] = true // the sentinel
	for i := n - 1; i >= 0; i-- {
		isS[i] = i+1 < n && (text[i] < text[i+1] || text[i] == text[i+1] && isS[i+1])
	}
	var lms []int
	for i := 1; i < n; i++ {
		if isS[i] && !isS[i-1] {
			lms = append(lms, i)
		}
	}
	if len(lms) < 2 {
		return 0
	}
	substr := func(k int) string { // a sortable rendering of LMS-substring k
		end := n // the last one runs into the sentinel, which no other does
		if k+1 < len(lms) {
			end = lms[k+1] + 1
		}
		var b bytes.Buffer
		for _, c := range text[lms[k]:end] {
			fmt.Fprintf(&b, "%08x", c)
		}
		if end == n {
			b.WriteString("$")
		}
		return b.String()
	}
	keys := make([]string, len(lms))
	for k := range lms {
		keys[k] = substr(k)
	}
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	names := map[string]int32{}
	for _, k := range sorted {
		if _, ok := names[k]; !ok {
			names[k] = int32(len(names))
		}
	}
	if len(names) == len(lms) {
		return 0
	}
	reduced := make([]int32, len(lms))
	for k := range lms {
		reduced[k] = names[keys[k]]
	}
	return 1 + recursionLevels(reduced)
}

func widen(text []uint8) []int32 {
	out := make([]int32, len(text))
	for i, c := range text {
		out[i] = int32(c)
	}
	return out
}

// TestBuildStructuredTexts pins the order on the inputs that stress what the
// in-place SA-IS does differently from the textbook one: names and the
// reduced text living inside the array (periodic and all-equal texts, where
// nearly every LMS-substring repeats), deep recursion, and LMS counts at the
// layout's limit of (n-1)/2.
func TestBuildStructuredTexts(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 2, 3, 50, 1000} {
		checkAllAgree(t, "all-equal", tile([]uint8{2}, n), 4)
	}
	for _, p := range [][]uint8{{0, 1}, {1, 0}, {0, 1, 2}, {2, 1, 0}, {1, 0, 0}, {3, 1, 2, 0, 3, 3, 1}, {0, 0, 1, 0, 1, 1, 0}} {
		for _, n := range []int{len(p), 4 * len(p), 4*len(p) + 1, 999, 1000, 3001} {
			checkAllAgree(t, fmt.Sprintf("period-%d", len(p)), tile(p, n), 4)
		}
	}
	// (ba)^k and (ba)^k·b: every other position is LMS. The second has
	// (n-1)/2 of them, the most a text can have, so the sorted LMS-substrings
	// at the top of the array and the names at the bottom meet.
	for _, k := range []int{1, 2, 3, 4, 31, 32, 500} {
		checkAllAgree(t, "(ba)^k", tile([]uint8{1, 0}, 2*k), 2)
		checkAllAgree(t, "(ba)^k·b", tile([]uint8{1, 0}, 2*k+1), 2)
		checkAllAgree(t, "(ab)^k", tile([]uint8{0, 1}, 2*k), 2)
		checkAllAgree(t, "(cab)^k·c", tile([]uint8{2, 0, 1}, 3*k+1), 3)
	}
	for _, n := range []int{10, 233, 1000, 4000, 30000} {
		checkAllAgree(t, "fibonacci", fibonacci(n), 2)
		checkAllAgree(t, "thue-morse", thueMorse(n), 2)
	}
	planted := plantedRepeats(rng, 60000)
	if levels := recursionLevels(widen(planted)); levels < 3 {
		t.Fatalf("planted-repeat text recurses %d levels, want >= 3", levels)
	}
	checkAllAgree(t, "planted repeats", planted, 4)
	if levels := recursionLevels(widen(fibonacci(30000))); levels < 3 {
		t.Fatalf("Fibonacci text recurses %d levels, want >= 3", levels)
	}
	// The wide-alphabet path: 256 buckets at the top level, and few enough
	// repeats that the first reduced text has nearly as many names as symbols,
	// which is when the bucket arrays of the recursion do not fit in the gap
	// the array leaves them.
	checkAllAgree(t, "sigma 256", randomText(rng, 50000, 256), 256)
	checkAllAgree(t, "sigma 256 sparse", randomText(rng, 300, 256), 256)
}

// TestBuildEveryShortLength: every length 0..64, exhaustively over the unary
// alphabet and all binary texts up to 12 symbols, at random above that.
func TestBuildEveryShortLength(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for n := 0; n <= 64; n++ {
		checkAllAgree(t, "unary", make([]uint8, n), 1)
		for _, sigma := range []int{2, 4} {
			for rep := 0; rep < 20; rep++ {
				checkAllAgree(t, "random", randomText(rng, n, sigma), sigma)
			}
		}
	}
	for n := 0; n <= 12; n++ {
		text := make([]uint8, n)
		for code := 0; code < 1<<n; code++ {
			for i := range text {
				text[i] = uint8(code >> i & 1)
			}
			if got, _ := Build(text, 2); !equalSA(got, buildNaive(text)) {
				t.Fatalf("binary text %v: got %v", text, got)
			}
		}
	}
}

// TestBuildValidatesOnChr21Like runs the independent checker over a 5 Mbp
// genome-like text: a permutation, every adjacent pair of suffixes in order.
func TestBuildValidatesOnChr21Like(t *testing.T) {
	if testing.Short() {
		t.Skip("5 Mbp build")
	}
	ref, err := readsim.Chr21Like(3, 5e6/40088619.0)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := Build(ref, 4) // the reference's own element type, not a byte copy
	if err != nil {
		t.Fatal(err)
	}
	text := make([]uint8, len(ref))
	for i, b := range ref {
		text[i] = uint8(b)
	}
	if err := Validate(text, sa); err != nil {
		t.Fatal(err)
	}
}

// TestBuildCtxStopsMidBuild: a context that ends while the passes run makes
// BuildCtx return its error long before the build would have finished.
func TestBuildCtxStopsMidBuild(t *testing.T) {
	text := randomText(rand.New(rand.NewSource(22)), 2<<20, 4)
	start := time.Now()
	if _, err := Build(text, 4); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	ctx, cancel := context.WithTimeout(context.Background(), full/10)
	defer cancel()
	start = time.Now()
	_, err := BuildCtx(ctx, text, 4)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if took := time.Since(start); took > full*3/4 {
		t.Errorf("canceled a tenth of the way in, returned after %v of a %v build", took, full)
	}
}

// TestBuildAllocationBudget: the array Build returns is the only memory
// proportional to the text that it allocates. 4 bytes per base are the array;
// the rest is bucket counters for a recursion level whose names do not fit in
// the array's own gap. The construction this replaced allocated 33 bytes per
// base.
func TestBuildAllocationBudget(t *testing.T) {
	text := randomText(rand.New(rand.NewSource(23)), 1_000_000, 4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sa, err := Build(text, 4)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perBase := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(text))
	t.Logf("suffixarray.Build allocated %.2f bytes per base", perBase)
	if perBase > 6.5 {
		t.Errorf("Build allocated %.2f bytes per base, budget 6.5", perBase)
	}
	runtime.KeepAlive(sa)
}

// FuzzBuild maps bytes to a text over 2, 4 or 256 symbols and checks SA-IS
// against the naive sort (short texts) or the validator (long ones).
func FuzzBuild(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte("mississippi"), uint8(2))
	f.Add(bytes.Repeat([]byte{1, 0}, 40), uint8(0))
	f.Add(bytes.Repeat([]byte{1, 0}, 40)[:79], uint8(1))
	f.Add(bytes.Repeat([]byte{3, 1, 2, 0, 3, 3, 1}, 400), uint8(1))
	f.Add(fibonacci(3000), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, sigmaRaw uint8) {
		if len(raw) > 1<<14 {
			raw = raw[:1<<14] // Validate is quadratic on a periodic text
		}
		sigma := []int{2, 4, 256}[int(sigmaRaw)%3]
		text := make([]uint8, len(raw))
		for i, c := range raw {
			text[i] = uint8(int(c) % sigma)
		}
		sa, err := Build(text, sigma)
		if err != nil {
			t.Fatal(err)
		}
		if len(text) < 2048 {
			if !equalSA(sa, buildNaive(text)) {
				t.Fatalf("sigma=%d text=%v: got %v", sigma, text, sa)
			}
		} else if err := Validate(text, sa); err != nil {
			t.Fatalf("sigma=%d n=%d: %v", sigma, len(text), err)
		}
	})
}
