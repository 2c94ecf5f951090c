package fmindex

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bwaver/internal/dna"
	"bwaver/internal/rrr"
)

// bruteSMEMs computes SMEMs by definition: exact matches of pattern slices
// that occur in text and are not contained in any other occurring slice.
func bruteSMEMs(text, pattern []uint8, minLen int) [][2]int {
	occurs := func(s, e int) bool {
		return len(naiveOccurrences(text, pattern[s:e])) > 0
	}
	// Locally maximal matches: cannot extend either direction.
	var mems [][2]int
	for s := 0; s < len(pattern); s++ {
		for e := s + 1; e <= len(pattern); e++ {
			if !occurs(s, e) {
				break
			}
			leftMax := s == 0 || !occurs(s-1, e)
			rightMax := e == len(pattern) || !occurs(s, e+1)
			if leftMax && rightMax {
				mems = append(mems, [2]int{s, e})
			}
		}
	}
	// Super-maximal: not contained in another MEM.
	var out [][2]int
	for _, m := range mems {
		contained := false
		for _, o := range mems {
			if o != m && o[0] <= m[0] && m[1] <= o[1] {
				contained = true
				break
			}
		}
		if !contained && m[1]-m[0] >= minLen {
			out = append(out, m)
		}
	}
	return out
}

func TestSMEMsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 40; trial++ {
		// Repetitive texts make interesting SMEM structure.
		unit := buildText(rng, 13+rng.Intn(30))
		var text []uint8
		for len(text) < 1200 {
			text = append(text, unit...)
			text = append(text, buildText(rng, 5)...)
		}
		bi := buildBi(t, text)
		var pattern []uint8
		switch trial % 3 {
		case 0:
			pattern = buildText(rng, 20+rng.Intn(40))
		case 1: // mutated substring
			s := rng.Intn(len(text) - 60)
			pattern = append([]uint8(nil), text[s:s+60]...)
			for m := 0; m < 3; m++ {
				p := rng.Intn(len(pattern))
				pattern[p] = uint8((int(pattern[p]) + 1 + rng.Intn(3)) % 4)
			}
		case 2: // chimera of two loci
			s1 := rng.Intn(len(text) - 30)
			s2 := rng.Intn(len(text) - 30)
			pattern = append(append([]uint8(nil), text[s1:s1+25]...), text[s2:s2+25]...)
		}
		// Out-of-alphabet symbols (4, 5) end a match in either direction.
		for m := rng.Intn(3); m > 0; m-- {
			pattern[rng.Intn(len(pattern))] = uint8(4 + rng.Intn(2))
		}
		// 1 never jumps; 5 and 19 (the mem default) reach the window jump,
		// the hand-off to a long enough L(e+1) and the window past the end.
		for _, minLen := range []int{1, 5, 19} {
			checkSMEMs(t, bi, text, pattern, minLen)
		}
	}
}

// TestSMEMsFewCopies checks the search against bruteSMEMs on texts that
// repeat a unit between 2 and 17 times, each copy with up to two
// substitutions of its own, through the full suffix array and through
// samples at rate 8: the matches of 2 to 16 occurrences a full array
// locates, whose comparisons drop copies one by one on either side, and the
// 17 it leaves ranked.
func TestSMEMsFewCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(116))
	several := 0
	for _, copies := range []int{2, 3, 5, 9, 16, 17} {
		unit := buildText(rng, 40+rng.Intn(30))
		text := buildText(rng, 200)
		for range copies {
			c := append([]uint8(nil), unit...)
			for m := rng.Intn(3); m > 0; m-- {
				c[rng.Intn(len(c))] ^= uint8(1 + rng.Intn(3))
			}
			text = append(append(text, c...), buildText(rng, 10+rng.Intn(40))...)
		}
		full := buildBi(t, text)
		samples, err := NewSampledSA(full.fwd.sa, 8)
		if err != nil {
			t.Fatal(err)
		}
		sampledFwd := *full.fwd
		sampledFwd.sa, sampledFwd.sampled = nil, samples
		sampled, err := NewBiIndexOver(&sampledFwd, dna.Pack(text), testParams)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			pattern := append(append(buildText(rng, 5), unit...), buildText(rng, 5)...)
			if trial > 0 {
				pattern[rng.Intn(len(pattern))] = uint8(rng.Intn(6)) // 4, 5: out of alphabet
			}
			for _, minLen := range []int{1, 19} {
				checkSMEMs(t, full, text, pattern, minLen)
				checkSMEMs(t, sampled, text, pattern, minLen)
			}
			got, _, err := full.SMEMsAppend(nil, pattern, 8)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range got {
				if s.Located > 1 {
					several++
				}
			}
		}
	}
	if several == 0 {
		t.Error("no SMEM was located with several occurrences")
	}
}

// checkSMEMs compares the search with bruteSMEMs and every match with the
// plain index's count of its slice (checkSMEMHits).
func checkSMEMs(t *testing.T, bi *BiIndex, text, pattern []uint8, minLen int) {
	t.Helper()
	want := bruteSMEMs(text, pattern, minLen)
	got, _, err := bi.SMEMsAppend(nil, pattern, minLen)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("minLen %d: %d SMEMs, want %d\ngot:  %v\nwant: %v\npattern: %v",
			minLen, len(got), len(want), smemIntervals(got), want, pattern)
	}
	for i := range want {
		if got[i].Start != want[i][0] || got[i].End != want[i][1] {
			t.Fatalf("minLen %d: SMEM %d = [%d,%d), want [%d,%d)",
				minLen, i, got[i].Start, got[i].End, want[i][0], want[i][1])
		}
		checkSMEMHits(t, bi, pattern, got[i])
	}
}

// checkSMEMHits checks one SMEM against the plain index: a match of more
// occurrences than the search locates keeps the interval that counts its
// slice; any other holds that interval's located rows in row order, as
// LocateAppend gives them, and no interval.
func checkSMEMHits(t *testing.T, bi *BiIndex, pattern []uint8, got SMEM) {
	t.Helper()
	plain := bi.Forward().Count(pattern[got.Start:got.End])
	want := SMEM{Start: got.Start, End: got.End, Rows: emptyBiRange}
	if plain.Count() > bi.locateMax {
		if got.Rows.Fwd != plain || got.Rows.Rev.Count() != plain.Count() || got.Located != 0 || got.Pos != want.Pos {
			t.Fatalf("SMEM [%d,%d): rows %v, %d located at %v; plain rows %v",
				got.Start, got.End, got.Rows, got.Located, got.Pos, plain)
		}
		return
	}
	at, err := bi.Forward().LocateAppend(nil, plain)
	if err != nil {
		t.Fatal(err)
	}
	want.Located = copy(want.Pos[:], at)
	if got != want {
		t.Fatalf("SMEM [%d,%d): rows %v, %d located at %v; plain rows %v at %v",
			got.Start, got.End, got.Rows, got.Located, got.Pos, plain, at)
	}
}

// TestSMEMsOverlappingAfterWindow plants three SMEMs A = [0,30), B = [12,35)
// and C = [22,45) of one pattern at three loci of a text. With minLen 10,
// after A ends at e = 30 the next start is L(31) = 12, well before the
// window e+1-minLen = 21 that all three overlap: a search that restarted
// there would take P[21,35) for a match start and skip B.
func TestSMEMsOverlappingAfterWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(114))
	pattern := buildText(rng, 45)
	text := buildText(rng, 3000)
	for i, m := range [][2]int{{0, 30}, {12, 35}, {22, 45}} {
		at := 200 + 1000*i
		copy(text[at:], pattern[m[0]:m[1]])
		// Flank each copy with symbols that end the match on both sides.
		if m[0] > 0 {
			text[at-1] = (pattern[m[0]-1] + 1) % 4
		}
		if m[1] < len(pattern) {
			text[at+m[1]-m[0]] = (pattern[m[1]] + 1) % 4
		}
	}
	bi := buildBi(t, text)
	got, _, err := bi.SMEMsAppend(nil, pattern, 10)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][2]int{{0, 30}, {12, 35}, {22, 45}}; fmt.Sprint(smemIntervals(got)) != fmt.Sprint(want) {
		t.Fatalf("SMEMs %v, want %v", smemIntervals(got), want)
	}
	checkSMEMs(t, bi, text, pattern, 10)
}

func smemIntervals(ss []SMEM) [][2]int {
	out := make([][2]int, len(ss))
	for i, s := range ss {
		out[i] = [2]int{s.Start, s.End}
	}
	return out
}

func TestSMEMsMinLenFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	text := buildText(rng, 2000)
	bi := buildBi(t, text)
	pattern := buildText(rng, 50)
	all, _, err := bi.SMEMsAppend(nil, pattern, 1)
	if err != nil {
		t.Fatal(err)
	}
	long, _, err := bi.SMEMsAppend(nil, pattern, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(long) > len(all) {
		t.Fatal("filter grew the set")
	}
	for _, s := range long {
		if s.Len() < 12 {
			t.Fatalf("SMEM %+v below min length", s)
		}
	}
	if _, _, err := bi.SMEMsAppend(nil, pattern, 0); err == nil {
		t.Error("accepted minLen 0")
	}
}

func TestSMEMsExactReadSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	text := buildText(rng, 5000)
	bi := buildBi(t, text)
	pattern := text[700:760]
	smems, _, err := bi.SMEMsAppend(nil, pattern, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(smems) != 1 || smems[0].Start != 0 || smems[0].End != 60 {
		t.Fatalf("exact read SMEMs = %v", smemIntervals(smems))
	}
}

// FuzzSMEMs drives the bidirectional SMEM search with arbitrary text/pattern
// splits and checks it against the O(n²) brute-force definition, and both
// of its drivers — SMEMsAppend and SMEMsGroup in groups of every size —
// against the one-pattern reference loop, on full and sampled arrays with
// the tables and without. minLen
// ranges over 1..24, so short repetitive texts reach every branch of the
// search: the window that fails and jumps, the direct hand-off to an L(e+1)
// already minLen long, the window reopened at a shorter L(e+1), and the
// window that no longer fits the pattern.
func FuzzSMEMs(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 0, 1}, []byte{0, 1, 2}, uint8(1))
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0}, []byte{0, 0, 1, 0, 0}, uint8(2))
	f.Add([]byte{1, 2, 1, 2, 1, 2, 1, 2, 3}, []byte{2, 1, 2, 9, 1, 2}, uint8(1))
	// Long enough for a short-pattern table of order 3; the patterns put
	// out-of-alphabet symbols (4, 5) and the longest matches — hence the
	// pivots' table lookups — at either end.
	long := []byte("\x00\x01\x02\x03\x03\x02\x01\x00\x00\x00\x01\x01\x02\x02\x03\x03\x00\x02\x01\x03" +
		"\x03\x01\x02\x00\x01\x00\x03\x02\x02\x00\x03\x01\x00\x03\x00\x01\x01\x03\x02\x01\x02\x03\x00\x02" +
		"\x01\x01\x00\x00\x03\x03\x02\x02\x01\x00\x02\x03\x01\x02\x00\x03\x03\x00\x01\x02\x02\x01\x03\x00")
	f.Add(long, []byte{4, 0, 1, 2, 3, 3, 2, 1, 0, 0, 5}, uint8(1))
	f.Add(long, []byte{0, 1, 2, 3, 3, 2, 4, 1, 3, 2, 1, 2, 3, 0, 2}, uint8(3))
	f.Add(long, []byte{3, 0, 5, 5, 2, 2, 1, 0, 2, 3, 1, 2, 0, 3, 3, 0}, uint8(2))
	f.Add(long, append(append([]byte{}, long[10:30]...), long[5:25]...), uint8(7))
	// A 256-symbol text has order 4. Its patterns open with a window whose
	// string is present, absent with a living shorter suffix, and cut by an
	// out-of-alphabet symbol at each offset from its end, at a minimum length
	// below and above the order.
	window := make([]byte, 256)
	for i, c := range buildText(rand.New(rand.NewSource(61)), len(window)) {
		window[i] = byte(c)
	}
	var present [256]bool
	for i := 0; i+4 <= len(window); i++ {
		present[int(window[i])<<6|int(window[i+1])<<4|int(window[i+2])<<2|int(window[i+3])] = true
	}
	absent := 0 // a 4-mer the text lacks whose 3-symbol suffix it holds
	for present[absent] || !present[absent&63] {
		absent++
	}
	cut := func(at int) []byte { return append([]byte(nil), window[at:at+30]...) }
	for _, minLen := range []int{3, 7} {
		f.Add(window, cut(100), uint8(minLen-1))
		planted, end := cut(150), minLen // the first window ends with the 4-mer
		if end < 4 {
			end = 10 // a window of the order opens after the first SMEM
		}
		for i := range 4 {
			planted[end-4+i] = byte(absent >> (2 * (3 - i)) & 3)
		}
		f.Add(window, planted, uint8(minLen-1))
		for offset := range min(minLen, 4) {
			broken := cut(40)
			broken[minLen-1-offset] = byte(4 + offset%2)
			f.Add(window, broken, uint8(minLen-1))
		}
	}
	// A unique match that starts at the text's first symbol, and one that
	// ends at its last: the left and the right comparison fail at the text's
	// edge. A text of two equal halves holds no unique match: every match
	// in it occurs twice, and is located through the full array.
	edges := []byte{0, 1, 2, 3, 3, 1, 0, 2, 2, 1, 3, 0, 1, 1, 2, 0}
	f.Add(edges, []byte{3, 0, 1, 2, 3, 3, 1, 0}, uint8(2))
	f.Add(edges, []byte{1, 3, 0, 1, 1, 2, 0, 3}, uint8(2))
	f.Add(append(append([]byte{}, edges...), edges...), append([]byte{2}, edges[4:12]...), uint8(1))
	// Texts that repeat a unit 2, 5, 16 and 17 times, with a spacer that
	// varies between copies: the search locates a match of up to 16
	// occurrences and compares the text after and before each, a copy at
	// a time dropping out; 17 stay ranked. The patterns are a copy with
	// its flanks, and one with a substitution in the unit.
	for _, copies := range []int{2, 5, 16, 17} {
		unit := []byte{0, 1, 2, 3, 1, 1, 3, 0, 2, 2, 0, 3}
		var text []byte
		for c := range copies {
			text = append(text, unit...)
			text = append(text, byte(c%4), byte(c/4%4))
		}
		pattern := append([]byte{1, 0}, unit...)
		f.Add(text, append(pattern, 2, 0), uint8(4))
		pattern[7] ^= 1
		f.Add(text, pattern, uint8(2))
	}
	f.Fuzz(func(t *testing.T, textB, patB []byte, minLenB uint8) {
		if len(textB) == 0 || len(textB) > 300 || len(patB) == 0 || len(patB) > 80 {
			t.Skip()
		}
		text := make([]uint8, len(textB))
		for i, b := range textB {
			text[i] = uint8(b) % 4
		}
		// Keep out-of-alphabet symbols in the pattern: the search must skip
		// them, and the brute-force reference finds no occurrence through
		// them either.
		pattern := make([]uint8, len(patB))
		for i, b := range patB {
			pattern[i] = uint8(b) % 6
		}
		minLen := 1 + int(minLenB)%24
		full, err := NewBiIndex(text, 4, rrr.Params{BlockSize: 15, SuperblockFactor: 10})
		if err != nil {
			t.Fatal(err)
		}
		// The same text locating through samples at rate 8, where only a
		// match that occurs once is located.
		samples, err := NewSampledSA(full.fwd.sa, 8)
		if err != nil {
			t.Fatal(err)
		}
		sampledFwd := *full.fwd
		sampledFwd.sa, sampledFwd.sampled = nil, samples
		sampled, err := NewBiIndexOver(&sampledFwd, dna.Pack(text), rrr.Params{BlockSize: 15, SuperblockFactor: 10})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteSMEMs(text, pattern, minLen)
		fullSteps := -1
		for _, bi := range []*BiIndex{full, sampled} {
			got, steps, err := bi.SMEMsAppend(nil, pattern, minLen)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("locating %d: %d SMEMs, want %d\ngot:  %v\nwant: %v\ntext: %v\npattern: %v minLen %d",
					bi.locateMax, len(got), len(want), smemIntervals(got), want, text, pattern, minLen)
			}
			for i := range want {
				if got[i].Start != want[i][0] || got[i].End != want[i][1] {
					t.Fatalf("locating %d: SMEM %d = [%d,%d), want [%d,%d)", bi.locateMax, i, got[i].Start, got[i].End, want[i][0], want[i][1])
				}
				occ := naiveOccurrences(text, pattern[got[i].Start:got[i].End])
				if got[i].Count() != len(occ) {
					t.Fatalf("locating %d: SMEM %d counts %d, text has %d occurrences", bi.locateMax, i, got[i].Count(), len(occ))
				}
				if located := len(occ) <= bi.locateMax; located != (got[i].Located > 0) {
					t.Fatalf("locating %d: SMEM %d of %d occurrences located: %v", bi.locateMax, i, len(occ), !located)
				}
				if at := slices.Clone(got[i].Positions()); at != nil {
					if slices.Sort(at); !slices.Equal(at, occ) {
						t.Fatalf("locating %d: SMEM %d at %v, text has it at %v", bi.locateMax, i, at, occ)
					}
				}
				checkSMEMHits(t, bi, pattern, got[i])
			}
			// Where a match is located changes how it is extended, never how
			// many steps that takes.
			if fullSteps < 0 {
				fullSteps = steps
			} else if steps != fullSteps {
				t.Fatalf("%d steps locating through samples, %d through the full array", steps, fullSteps)
			}
			// Both drivers of the search, on the pattern among others: a
			// duplicate, a prefix too short for any SMEM, a stretch of the
			// text, the empty pattern and the pattern's second half.
			group := [][]uint8{pattern, text[:min(len(text), 80)], pattern[:min(len(pattern), minLen-1)], nil, pattern, pattern[len(pattern)/2:]}
			checkAgainstReference(t, bi, group, minLen)
			checkAgainstReference(t, withoutShort(bi), group, minLen)
			// The short-pattern table is a cache of rank results: the search
			// must not notice whether it is there.
			plain, plainSteps, err := withoutShort(bi).SMEMsAppend(nil, pattern, minLen)
			if err != nil {
				t.Fatal(err)
			}
			if plainSteps != steps || len(plain) != len(got) {
				t.Fatalf("%d SMEMs in %d steps with the table (order %d), %d in %d without",
					len(got), steps, bi.k, len(plain), plainSteps)
			}
			for i := range got {
				if got[i] != plain[i] {
					t.Fatalf("SMEM %d = %+v with the table (order %d), %+v without", i, got[i], bi.k, plain[i])
				}
			}
		}
		// The step count is the kernel cycle driver: it must be bounded by
		// the quadratic worst case.
		if fullSteps > 2*len(pattern)*len(pattern)+len(pattern) {
			t.Fatalf("%d extension steps for a %d-base pattern", fullSteps, len(pattern))
		}
	})
}

func TestSMEMsInvalidSymbolSkipped(t *testing.T) {
	text := []uint8{0, 1, 2, 3, 0, 1, 2, 3}
	bi := buildBi(t, text)
	pattern := []uint8{0, 1, 9, 2, 3}
	smems, _, err := bi.SMEMsAppend(nil, pattern, 1)
	if err != nil {
		t.Fatal(err)
	}
	// [0,2) and [3,5) are the expected matches around the bad symbol.
	if len(smems) != 2 || smems[0].End != 2 || smems[1].Start != 3 {
		t.Fatalf("SMEMs around invalid symbol = %v", smemIntervals(smems))
	}
}

// TestSMEMsLocate runs the search over one text with the forward direction
// locating through the full suffix array (where a match of up to 16
// occurrences is located), through samples at rate 8 (the served
// configuration, where entering a unique match walks LF) and through corrupt
// samples, and builds it over a forward direction that cannot locate. The
// first two must agree on every SMEM's bounds and occurrences and on the
// step count; a locate that fails must come back as the search's error; the
// last must be refused.
func TestSMEMsLocate(t *testing.T) {
	rng := rand.New(rand.NewSource(115))
	text := buildText(rng, 3000)
	copy(text[2000:], text[100:400]) // matches of two occurrences
	for c := range 5 {               // and of six
		copy(text[500+80*c:], text[1000:1060])
	}
	full := buildBi(t, text)
	samples, err := NewSampledSA(full.fwd.sa, 8)
	if err != nil {
		t.Fatal(err)
	}
	sampledFwd := *full.fwd
	sampledFwd.sa, sampledFwd.sampled = nil, samples
	sampled, err := NewBiIndexOver(&sampledFwd, dna.Pack(text), testParams)
	if err != nil {
		t.Fatal(err)
	}
	// Every sample claims the text's end: a walk of one LF step or more
	// locates past it.
	corruptFwd := sampledFwd
	corruptFwd.sampled = &SampledSA{rate: 8, marks: samples.marks, values: make([]int32, len(samples.values))}
	for i := range corruptFwd.sampled.values {
		corruptFwd.sampled.values[i] = int32(len(text))
	}
	corrupt, err := NewBiIndexOver(&corruptFwd, dna.Pack(text), testParams)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for trial := 0; trial < 50; trial++ {
		s := rng.Intn(len(text) - 60)
		pattern := append([]uint8(nil), text[s:s+60]...)
		pattern[rng.Intn(len(pattern))] ^= 1
		want, wantSteps, err := full.SMEMsAppend(nil, pattern, 11)
		if err != nil {
			t.Fatal(err)
		}
		got, steps, err := sampled.SMEMsAppend(nil, pattern, 11)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(smemIntervals(got)) != fmt.Sprint(smemIntervals(want)) || steps != wantSteps {
			t.Fatalf("trial %d: sampled %v in %d steps, full %v in %d", trial, smemIntervals(got), steps, smemIntervals(want), wantSteps)
		}
		for i := range want {
			checkSMEMHits(t, full, pattern, want[i])
			checkSMEMHits(t, sampled, pattern, got[i])
		}
		if _, _, err := corrupt.SMEMsAppend(nil, pattern, 11); err != nil {
			failed++
		}
		// A failing locate ends the search where the reference loop ends it,
		// with its SMEMs and steps so far — also one at the end of a match,
		// which happens where an invalid symbol or the pattern's end stops
		// the right walk before it locates.
		cut := append([]uint8(nil), text[s:s+60]...)
		cut[20], cut[41] = 4, 5
		checkAgainstReference(t, corrupt, [][]uint8{pattern, text[s : s+60], cut, text[s : s+12]}, 11)
	}
	if failed == 0 {
		t.Error("no search over corrupt samples returned an error")
	}
	countOnly, err := buildDirection(text, 4, testParams, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBiIndexOver(countOnly, dna.Pack(text), testParams); err == nil {
		t.Error("a forward direction that cannot locate was accepted")
	}
}

// referenceSMEMs is the SMEM search written as one loop over one pattern,
// the form SMEMsAppend took before its search became resumable: every
// driver of the search state is held to it.
func (bi *BiIndex) referenceSMEMs(pattern []uint8, minLen int) ([]SMEM, int, error) {
	var dst []SMEM
	if minLen < 1 {
		return dst, 0, fmt.Errorf("fmindex: minimum SMEM length %d must be >= 1", minLen)
	}
	steps := 0
	var m match
	for x := 0; x+minLen <= len(pattern); {
		s, err := bi.refLongestEndingAt(pattern, x+minLen, x, &m, &steps)
		if err != nil {
			return dst, steps, err
		}
		if s > x {
			x = s
			continue
		}
		for e := x + minLen; ; {
			if e, err = bi.refLongestStartingAt(pattern, s, e, &m, &steps); err == nil {
				err = bi.locate(&m)
			}
			if err != nil {
				return dst, steps, err
			}
			dst = append(dst, SMEM{Start: s, End: e, Rows: m.rows, Located: m.n, Pos: m.pos})
			if e == len(pattern) {
				return dst, steps, nil
			}
			e++
			if s, err = bi.refLongestEndingAt(pattern, e, 0, &m, &steps); err != nil {
				return dst, steps, err
			}
			if e-s < minLen {
				x = s
				break
			}
		}
	}
	return dst, steps, nil
}

func (bi *BiIndex) refLongestEndingAt(pattern []uint8, end, lo int, m *match, steps *int) (int, error) {
	s, key := end, uint32(0)
	for ; end-s < bi.k && s > lo && int(pattern[s-1]) < bi.sigma; s-- {
		key |= uint32(pattern[s-1]) << (2 * (end - s))
	}
	*m = match{rows: bi.All()}
	if w := end - s; w > 0 {
		if m.rows = bi.window(w, key); m.rows.Empty() {
			l := bi.ftab.presentSuffix(w, int(key))
			*steps += l + 1
			if m.key, m.rows = key&(1<<(2*l)-1), bi.All(); l > 0 {
				m.rows = bi.window(l, m.key)
			}
			return end - l, nil
		}
		*steps += w
		m.key = key
	}
	for ; s > lo && int(pattern[s-1]) < bi.sigma; s-- {
		if m.rows.Count() <= bi.locateMax {
			return bi.refLeftByText(pattern, s, lo, m, steps)
		}
		*steps++
		r := bi.ExtendLeft(m.rows, pattern[s-1])
		if r.Empty() {
			break
		}
		m.rows = r
	}
	return s, nil
}

func (bi *BiIndex) refLeftByText(pattern []uint8, s, lo int, m *match, steps *int) (int, error) {
	if err := bi.locate(m); err != nil {
		return s, err
	}
	for ; m.n > 1 && s > lo && int(pattern[s-1]) < bi.sigma; s-- {
		*steps++
		h := bi.text.keepBefore(m.hits, pattern[s-1])
		if h.n == 0 {
			return s, nil
		}
		m.hits = h
	}
	if m.n == 1 {
		n := bi.text.commonSuffix(int(m.pos[0]), pattern[lo:s])
		s, m.pos[0], *steps = s-n, m.pos[0]-int32(n), *steps+n
		if s > lo && int(pattern[s-1]) < bi.sigma {
			*steps++
		}
	}
	return s, nil
}

func (bi *BiIndex) refLongestStartingAt(pattern []uint8, start, end int, m *match, steps *int) (int, error) {
	for ; end < len(pattern) && int(pattern[end]) < bi.sigma; end++ {
		if m.rows.Count() <= bi.locateMax {
			return bi.refRightByText(pattern, start, end, m, steps)
		}
		*steps++
		r, k := bi.extendRightAt(m.rows, end-start, m.key, pattern[end])
		if r.Empty() {
			break
		}
		m.rows, m.key = r, k
	}
	return end, nil
}

func (bi *BiIndex) refRightByText(pattern []uint8, start, end int, m *match, steps *int) (int, error) {
	if err := bi.locate(m); err != nil {
		return end, err
	}
	for ; m.n > 1 && end < len(pattern) && int(pattern[end]) < bi.sigma; end++ {
		*steps++
		h := bi.text.keepAt(m.hits, end-start, bi.Len(), pattern[end])
		if h.n == 0 {
			return end, nil
		}
		m.hits = h
	}
	if m.n == 1 {
		n := bi.text.commonPrefix(int(m.pos[0])+end-start, bi.Len(), pattern[end:])
		end, *steps = end+n, *steps+n
		if end < len(pattern) && int(pattern[end]) < bi.sigma {
			*steps++
		}
	}
	return end, nil
}

// checkAgainstReference holds both drivers of the search to referenceSMEMs
// on every pattern: SMEMsAppend, and SMEMsGroup over the patterns cut into
// consecutive groups of each size from one to all, through one scratch.
// SMEMs — bounds, rows, located positions — steps and errors must be equal.
func checkAgainstReference(t *testing.T, bi *BiIndex, patterns [][]uint8, minLen int) {
	t.Helper()
	type result struct {
		smems []SMEM
		steps int
		err   error
	}
	want := make([]result, len(patterns))
	for p, pattern := range patterns {
		smems, steps, err := bi.referenceSMEMs(pattern, minLen)
		want[p] = result{smems, steps, err}
	}
	check := func(driver string, p int, got result) {
		t.Helper()
		if got.steps != want[p].steps || fmt.Sprint(got.err) != fmt.Sprint(want[p].err) || !slices.Equal(got.smems, want[p].smems) {
			t.Fatalf("%s, pattern %d %v, minLen %d, table order %d, locating %d:\n%v in %d steps (%v)\nreference %v in %d steps (%v)",
				driver, p, patterns[p], minLen, bi.k, bi.locateMax, got.smems, got.steps, got.err, want[p].smems, want[p].steps, want[p].err)
		}
	}
	for p, pattern := range patterns {
		smems, steps, err := bi.SMEMsAppend(nil, pattern, minLen)
		check("SMEMsAppend", p, result{smems, steps, err})
	}
	var g Group
	for size := 1; size <= len(patterns); size++ {
		for lo := 0; lo < len(patterns); lo += size {
			hi := min(lo+size, len(patterns))
			if err := bi.SMEMsGroup(&g, patterns[lo:hi], minLen); err != nil {
				t.Fatal(err)
			}
			for p := lo; p < hi; p++ {
				smems, steps, err := g.Result(p - lo)
				check(fmt.Sprintf("group of %d", size), p, result{smems, steps, err})
			}
		}
	}
}
