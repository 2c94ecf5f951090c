package fmindex

import (
	"math/rand"
	"strings"
	"testing"

	"bwaver/internal/dna"
	"bwaver/internal/rrr"
)

func buildBi(t *testing.T, text []uint8) *BiIndex {
	t.Helper()
	bi, err := NewBiIndex(text, 4, rrr.Params{BlockSize: 15, SuperblockFactor: 10})
	if err != nil {
		t.Fatal(err)
	}
	return bi
}

// TestNewBiIndexRefusesWideSymbols: the index keeps its text two bits a
// symbol, so an alphabet of more than four symbols, or a symbol outside the
// one given, is an error rather than a symbol cut to its low two bits.
func TestNewBiIndexRefusesWideSymbols(t *testing.T) {
	params := rrr.Params{BlockSize: 15, SuperblockFactor: 10}
	if _, err := NewBiIndex([]uint8{0, 1, 2, 3, 4}, 5, params); err == nil || !strings.Contains(err.Error(), "alphabet of 5") {
		t.Errorf("an alphabet of 5 symbols: %v", err)
	}
	if _, err := NewBiIndex([]uint8{0, 1, 4, 2, 3}, 4, params); err == nil || !strings.Contains(err.Error(), "symbol 4") {
		t.Errorf("a symbol 4 in an alphabet of 4: %v", err)
	}
	fwd, err := buildDirection([]uint8{0, 5, 1, 2}, 6, params, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBiIndexOver(fwd, dna.Pack([]uint8{0, 1, 2, 3}), params); err == nil || !strings.Contains(err.Error(), "alphabet of 6") {
		t.Errorf("a forward index over 6 symbols: %v", err)
	}
}

func TestBiCountMatchesPlainIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	text := buildText(rng, 2000)
	bi := buildBi(t, text)
	for trial := 0; trial < 150; trial++ {
		var pattern []uint8
		if trial%2 == 0 {
			l := 1 + rng.Intn(25)
			s := rng.Intn(len(text) - l)
			pattern = text[s : s+l]
		} else {
			pattern = buildText(rng, 1+rng.Intn(15))
		}
		want := bi.Forward().Count(pattern)
		got := bi.Count(pattern)
		if got.Empty() != want.Empty() {
			t.Fatalf("bi count %v, plain %v for %v", got.Fwd, want, pattern)
		}
		if !got.Empty() && got.Fwd != want {
			t.Fatalf("bi interval %v, plain %v for %v", got.Fwd, want, pattern)
		}
	}
}

// TestBiExtendBothDirections grows a pattern outward from the middle and
// checks every intermediate interval against the plain index.
func TestBiExtendBothDirections(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	text := buildText(rng, 3000)
	bi := buildBi(t, text)
	for trial := 0; trial < 40; trial++ {
		s := 20 + rng.Intn(len(text)-60)
		mid := s + 10
		r := bi.ExtendLeft(bi.All(), text[mid])
		lo, hi := mid, mid+1
		for step := 0; step < 18 && !r.Empty(); step++ {
			if step%2 == 0 && lo > 0 {
				lo--
				r = bi.ExtendLeft(r, text[lo])
			} else if hi < len(text) {
				r = bi.ExtendRight(r, text[hi])
				hi++
			}
			want := bi.Forward().Count(text[lo:hi])
			if r.Empty() != want.Empty() || (!r.Empty() && r.Fwd != want) {
				t.Fatalf("trial %d [%d,%d): bi %v, plain %v", trial, lo, hi, r.Fwd, want)
			}
			// The reverse interval must have the same size and count the
			// reversed pattern in the reversed text.
			if !r.Empty() && r.Rev.Count() != want.Count() {
				t.Fatalf("trial %d: rev interval size %d, want %d", trial, r.Rev.Count(), want.Count())
			}
		}
	}
}

func TestBiExtendInvalidSymbol(t *testing.T) {
	text := []uint8{0, 1, 2, 3, 0, 1}
	bi := buildBi(t, text)
	if !bi.ExtendLeft(bi.All(), 9).Empty() {
		t.Error("invalid symbol extended left")
	}
	if !bi.ExtendRight(bi.All(), 9).Empty() {
		t.Error("invalid symbol extended right")
	}
	dead := bi.ExtendLeft(bi.All(), 0)
	dead = BiRange{Fwd: Range{Start: 1, End: 0}, Rev: Range{Start: 1, End: 0}}
	if !bi.ExtendLeft(dead, 0).Empty() {
		t.Error("empty interval extended")
	}
}

// TestBiRevIntervalIsReverseCount verifies the synchronised-interval
// invariant directly: the Rev interval of pattern P equals the plain
// interval of reverse(P) in the reversed text.
func TestBiRevIntervalIsReverseCount(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	text := buildText(rng, 1200)
	bi := buildBi(t, text)
	for trial := 0; trial < 60; trial++ {
		l := 1 + rng.Intn(12)
		s := rng.Intn(len(text) - l)
		pattern := text[s : s+l]
		revPattern := make([]uint8, l)
		for i, c := range pattern {
			revPattern[l-1-i] = c
		}
		r := bi.Count(pattern)
		want := bi.rev.Count(revPattern)
		if r.Empty() != want.Empty() || (!r.Empty() && r.Rev != want) {
			t.Fatalf("rev interval %v, want %v", r.Rev, want)
		}
	}
}

// withoutShort returns bi with the prefix tables out of use: every
// extension ranks, as before the tables existed.
func withoutShort(bi *BiIndex) *BiIndex {
	plain := *bi
	plain.k = 0
	return &plain
}

// TestShortTableMatchesExtensions is the tables' whole contract: every
// string of every level up to the order reads back as the interval chained
// extension reaches — from either end — and strings absent from the text as
// the empty interval. NewBiIndex builds the forward direction without a
// table, so the BiIndex holds two of its own, one int32 per k-mer each. The
// texts cover no table at all (n < 4), n below 4^maxShortK, exact powers of
// four, a text missing a symbol, and a repetitive one.
func TestShortTableMatchesExtensions(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	threeSymbols := buildText(rng, 700)
	for i := range threeSymbols {
		threeSymbols[i] %= 3
	}
	texts := [][]uint8{
		{2}, {0, 3}, {1, 1, 2}, {0, 1, 2, 3}, {3, 3, 3, 3, 3},
		buildText(rng, 15), buildText(rng, 16), buildText(rng, 17),
		buildText(rng, 300), threeSymbols,
		append(append(buildText(rng, 40), buildText(rng, 40)...), make([]uint8, 200)...),
		buildText(rng, 5000),
	}
	if !testing.Short() {
		texts = append(texts, buildText(rng, 70000)) // k = 8
	}
	for _, text := range texts {
		bi := buildBi(t, text)
		wantK := 0
		for wantK < maxShortK && pow4(wantK+1) <= len(text) {
			wantK++
		}
		tables := 0
		if wantK > 0 {
			tables = 2 * (4*(pow4(wantK)+1) + ftabFixedBytes)
		}
		if got := bi.SizeBytes() - bi.fwd.SizeBytes() - bi.rev.SizeBytes(); bi.k != wantK || got != tables {
			t.Fatalf("n=%d: order %d with %d table bytes, want order %d with %d",
				len(text), bi.k, got, wantK, tables)
		}
		pattern := make([]uint8, bi.k)
		for l := 1; l <= bi.k; l++ {
			for key := 0; key < pow4(l); key++ {
				p := pattern[:l]
				for i := range p {
					p[i] = uint8(key >> (2 * (l - 1 - i)) & 3)
				}
				left, right := bi.All(), bi.All()
				for i := range p {
					left = bi.ExtendLeft(left, p[l-1-i])
					right = bi.ExtendRight(right, p[i])
				}
				got := bi.lookup(l, uint32(key))
				if got != left || got != right {
					t.Fatalf("n=%d %v: table %+v, ExtendLeft chain %+v, ExtendRight chain %+v",
						len(text), p, got, left, right)
				}
				if len(text) > 5000 {
					continue // the quadratic count below is for the small texts
				}
				if occ := len(naiveOccurrences(text, p)); got.Count() != occ || got.Empty() != (occ == 0) {
					t.Fatalf("n=%d %v: table holds %d rows, text has %d occurrences", len(text), p, got.Count(), occ)
				}
			}
		}
	}
}

func pow4(k int) int { return 1 << (2 * k) }

// TestSMEMsShortTableTransparent runs reads with substitutions through the
// search with and without the table on a text long enough for a deep table:
// SMEMs, their rows or located positions and the step count must not notice
// it, and each SMEM must agree with the plain index.
func TestSMEMsShortTableTransparent(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	unit := buildText(rng, 900)
	var text []uint8
	for len(text) < 20000 {
		text = append(text, unit...)
		text = append(text, buildText(rng, 1500)...)
	}
	bi := buildBi(t, text)
	if bi.k != 7 {
		t.Fatalf("order %d over %d symbols, want 7", bi.k, len(text))
	}
	plain := withoutShort(bi)
	for trial := 0; trial < 200; trial++ {
		s := rng.Intn(len(text) - 150)
		pattern := append([]uint8(nil), text[s:s+150]...)
		for m := 0; m < 3; m++ {
			pattern[rng.Intn(len(pattern))] = uint8(rng.Intn(6)) // 4, 5: out of alphabet
		}
		if trial%7 == 0 {
			pattern = pattern[:1+rng.Intn(12)] // reads shorter than the order
		}
		want, wantSteps, err := plain.SMEMsAppend(nil, pattern, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, gotSteps, err := bi.SMEMsAppend(nil, pattern, 1)
		if err != nil {
			t.Fatal(err)
		}
		if gotSteps != wantSteps || len(got) != len(want) {
			t.Fatalf("trial %d: %d SMEMs in %d steps with the table, %d in %d without",
				trial, len(got), gotSteps, len(want), wantSteps)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: SMEM %d = %+v with the table, %+v without", trial, i, got[i], want[i])
			}
			checkSMEMHits(t, plain, pattern, want[i])
		}
	}
}
