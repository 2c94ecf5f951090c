package align

import (
	"math/rand"
	"testing"

	"bwaver/internal/dna"
)

func TestScoringValidate(t *testing.T) {
	bad := []Scoring{
		{Match: 0, Mismatch: -1, Gap: -1},
		{Match: -2, Mismatch: -1, Gap: -1},
		{Match: 2, Mismatch: 1, Gap: -1},
		{Match: 2, Mismatch: -1, Gap: 0},
	}
	for _, s := range bad {
		if s.validate() == nil {
			t.Errorf("accepted invalid scoring %+v", s)
		}
	}
	if DefaultScoring.validate() != nil {
		t.Error("DefaultScoring invalid")
	}
}

func TestExactMatchAlignment(t *testing.T) {
	q := dna.MustParseSeq("ACGTACGT")
	r := dna.MustParseSeq("TTTACGTACGTTTT")
	res, err := SmithWaterman(q, r, DefaultScoring)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != 8*DefaultScoring.Match {
		t.Errorf("score %d, want %d", res.Score, 8*DefaultScoring.Match)
	}
	if res.RefStart != 3 || res.RefEnd != 11 || res.QueryStart != 0 || res.QueryEnd != 8 {
		t.Errorf("coordinates wrong: %+v", res)
	}
	if res.CIGAR() != "8M" {
		t.Errorf("CIGAR %q, want 8M", res.CIGAR())
	}
}

func TestMismatchAlignment(t *testing.T) {
	q := dna.MustParseSeq("ACGTACGTAC")
	r := q.Clone()
	r[5] = r[5].Complement() // one substitution in the middle
	res, err := SmithWaterman(q, r, DefaultScoring)
	if err != nil {
		t.Fatal(err)
	}
	want := 9*DefaultScoring.Match + DefaultScoring.Mismatch
	if res.Score != want {
		t.Errorf("score %d, want %d", res.Score, want)
	}
	if res.CIGAR() != "10M" {
		t.Errorf("CIGAR %q, want 10M", res.CIGAR())
	}
}

func TestGapAlignment(t *testing.T) {
	// Reference has 3 extra bases in the middle: expect a deletion run.
	q := dna.MustParseSeq("AACCGGTTAACCGGTT")
	r := dna.MustParseSeq("AACCGGTTGGGAACCGGTT")
	res, err := SmithWaterman(q, r, Scoring{Match: 2, Mismatch: -5, Gap: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CIGAR() != "8M3D8M" {
		t.Errorf("CIGAR %q, want 8M3D8M", res.CIGAR())
	}
}

func TestInsertionAlignment(t *testing.T) {
	q := dna.MustParseSeq("AACCGGTTAAAACCGGTT")
	r := dna.MustParseSeq("AACCGGTTAACCGGTT")
	res, err := SmithWaterman(q, r, Scoring{Match: 2, Mismatch: -5, Gap: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CIGAR() != "9M2I7M" && res.CIGAR() != "8M2I8M" && res.CIGAR() != "10M2I6M" {
		t.Errorf("CIGAR %q, want an 'xM2IyM' shape", res.CIGAR())
	}
}

func TestNoAlignment(t *testing.T) {
	res, err := SmithWaterman(dna.MustParseSeq("AAAA"), dna.MustParseSeq("CCCC"),
		Scoring{Match: 1, Mismatch: -2, Gap: -2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != 0 || res.CIGAR() != "*" {
		t.Errorf("expected empty alignment, got %+v", res)
	}
}

func TestEmptyInputs(t *testing.T) {
	res, err := SmithWaterman(nil, dna.MustParseSeq("ACGT"), DefaultScoring)
	if err != nil || res.Score != 0 {
		t.Errorf("empty query: %+v %v", res, err)
	}
	res, err = SmithWaterman(dna.MustParseSeq("ACGT"), nil, DefaultScoring)
	if err != nil || res.Score != 0 {
		t.Errorf("empty ref: %+v %v", res, err)
	}
}

func TestScoreNeverNegativeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		q := make(dna.Seq, 1+rng.Intn(30))
		r := make(dna.Seq, 1+rng.Intn(60))
		for i := range q {
			q[i] = dna.Base(rng.Intn(4))
		}
		for i := range r {
			r[i] = dna.Base(rng.Intn(4))
		}
		res, err := SmithWaterman(q, r, DefaultScoring)
		if err != nil {
			t.Fatal(err)
		}
		if res.Score < 0 {
			t.Fatalf("negative score %d", res.Score)
		}
		// Score must never exceed a perfect full-query match.
		if res.Score > len(q)*DefaultScoring.Match {
			t.Fatalf("score %d exceeds perfect match bound", res.Score)
		}
		// Traceback consistency: ops consume exactly the aligned spans.
		qLen, rLen := 0, 0
		for _, op := range res.Ops {
			switch op {
			case OpMatch:
				qLen++
				rLen++
			case OpInsert:
				qLen++
			case OpDelete:
				rLen++
			}
		}
		if qLen != res.QueryEnd-res.QueryStart || rLen != res.RefEnd-res.RefStart {
			t.Fatalf("traceback spans inconsistent: %+v", res)
		}
	}
}

func TestExtendSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ref := make(dna.Seq, 5000)
	for i := range ref {
		ref[i] = dna.Base(rng.Intn(4))
	}
	// Query = a reference slice with one mutation outside the seed region.
	const refAt, qLen, seedOff, seedLen = 2000, 100, 40, 20
	query := ref[refAt : refAt+qLen].Clone()
	query[5] = query[5].Complement()
	res, err := (&Extender{ZDrop: -1}).ExtendSeed(query, ref, seedOff, refAt+seedOff, seedLen, 10, DefaultScoring)
	if err != nil {
		t.Fatal(err)
	}
	if res.RefStart != refAt || res.RefEnd != refAt+qLen {
		t.Errorf("extension window wrong: ref span [%d,%d), want [%d,%d)",
			res.RefStart, res.RefEnd, refAt, refAt+qLen)
	}
	wantScore := (qLen-1)*DefaultScoring.Match + DefaultScoring.Mismatch
	if res.Score != wantScore {
		t.Errorf("score %d, want %d", res.Score, wantScore)
	}
}

func TestExtendSeedValidation(t *testing.T) {
	q := dna.MustParseSeq("ACGTACGT")
	r := dna.MustParseSeq("ACGTACGTACGT")
	cases := []struct{ qPos, rPos, seedLen, band int }{
		{0, 0, 0, 5},
		{0, 0, 4, -1},
		{-1, 0, 4, 5},
		{6, 0, 4, 5},  // seed runs off the query
		{0, 10, 4, 5}, // seed runs off the reference
	}
	for _, c := range cases {
		if _, err := (&Extender{ZDrop: -1}).ExtendSeed(q, r, c.qPos, c.rPos, c.seedLen, c.band, DefaultScoring); err == nil {
			t.Errorf("ExtendSeed(%+v) accepted invalid input", c)
		}
	}
	// band == 0 is a valid degenerate band (substitutions only).
	res, err := (&Extender{ZDrop: -1}).ExtendSeed(q, r, 0, 0, 4, 0, DefaultScoring)
	if err != nil {
		t.Fatalf("band 0 rejected: %v", err)
	}
	if res.Score != 8*DefaultScoring.Match || res.CIGAR() != "8M" {
		t.Errorf("band-0 extension = %+v", res)
	}
	// Empty inputs are an error, not a silent zero result.
	if _, err := (&Extender{ZDrop: -1}).ExtendSeed(nil, r, 0, 0, 4, 2, DefaultScoring); err == nil {
		t.Error("accepted empty query")
	}
	if _, err := (&Extender{ZDrop: -1}).ExtendSeed(q, nil, 0, 0, 4, 2, DefaultScoring); err == nil {
		t.Error("accepted empty reference")
	}
}

// TestExtendSeedMatchesFullDP: when the band is wide enough to contain the
// optimal alignment, the banded extension must reproduce full Smith-Waterman
// on the same window while evaluating strictly fewer DP cells.
func TestExtendSeedMatchesFullDP(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ref := make(dna.Seq, 3000)
	for i := range ref {
		ref[i] = dna.Base(rng.Intn(4))
	}
	const band = 12
	for trial := 0; trial < 50; trial++ {
		n := 60 + rng.Intn(60)
		at := rng.Intn(len(ref) - n)
		query := ref[at : at+n].Clone()
		// A few substitutions plus at most one short indel, within the band.
		for m := 0; m < 3; m++ {
			p := rng.Intn(len(query))
			query[p] = dna.Base(rng.Intn(4))
		}
		if trial%2 == 0 {
			p := 5 + rng.Intn(len(query)-10)
			del := 1 + rng.Intn(3)
			query = append(query[:p:p], query[p+del:]...)
		}
		// Anchor on an exact seed: scan for a 16-mer of the query present at
		// the expected diagonal.
		seedLen := 16
		qPos := -1
		for s := 0; s+seedLen <= len(query); s++ {
			eq := true
			for i := 0; i < seedLen; i++ {
				if query[s+i] != ref[at+s+i] {
					eq = false
					break
				}
			}
			if eq {
				qPos = s
				break
			}
		}
		if qPos < 0 {
			continue
		}
		got, err := (&Extender{ZDrop: -1}).ExtendSeed(query, ref, qPos, at+qPos, seedLen, band, DefaultScoring)
		if err != nil {
			t.Fatal(err)
		}
		wStart := max(0, at+qPos-qPos-band)
		wEnd := min(len(ref), at+qPos+(len(query)-qPos)+band)
		want, err := SmithWaterman(query, ref[wStart:wEnd], DefaultScoring)
		if err != nil {
			t.Fatal(err)
		}
		if got.Score != want.Score {
			t.Fatalf("trial %d: banded score %d, full %d", trial, got.Score, want.Score)
		}
		if got.QueryStart != want.QueryStart || got.QueryEnd != want.QueryEnd ||
			got.RefStart != want.RefStart+wStart || got.RefEnd != want.RefEnd+wStart {
			t.Fatalf("trial %d: banded coords %+v, full %+v (wStart %d)", trial, got, want, wStart)
		}
		if got.Cells >= want.Cells {
			t.Fatalf("trial %d: banded evaluated %d cells, full DP %d", trial, got.Cells, want.Cells)
		}
	}
}

// The banded DP must never pair bases further than band diagonals from the
// seed diagonal, whatever the inputs.
func TestExtendSeedStaysInBand(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 40; trial++ {
		ref := make(dna.Seq, 200)
		for i := range ref {
			ref[i] = dna.Base(rng.Intn(4))
		}
		query := make(dna.Seq, 40+rng.Intn(40))
		for i := range query {
			query[i] = dna.Base(rng.Intn(4))
		}
		seedLen := 8
		qPos := rng.Intn(len(query) - seedLen)
		rPos := qPos + rng.Intn(len(ref)-len(query))
		copy(query[qPos:qPos+seedLen], ref[rPos:rPos+seedLen])
		band := rng.Intn(6)
		res, err := (&Extender{ZDrop: -1}).ExtendSeed(query, ref, qPos, rPos, seedLen, band, DefaultScoring)
		if err != nil {
			t.Fatal(err)
		}
		qi, ri := res.QueryStart, res.RefStart
		for _, op := range res.Ops {
			if op == OpMatch {
				diag := ri - qi - (rPos - qPos)
				if diag < -band || diag > band {
					t.Fatalf("trial %d: pairing q%d:r%d is %d diagonals off a band of %d", trial, qi, ri, diag, band)
				}
			}
			switch op {
			case OpMatch:
				qi++
				ri++
			case OpInsert:
				qi++
			case OpDelete:
				ri++
			}
		}
	}
}

// SmithWaterman computes the best local alignment of query against ref with
// full O(|query|·|ref|) dynamic programming: the reference the tests hold
// Extender's kernels to.
func SmithWaterman(query, ref dna.Seq, sc Scoring) (Result, error) {
	if err := sc.validate(); err != nil {
		return Result{}, err
	}
	m, n := len(query), len(ref)
	if m == 0 || n == 0 {
		return Result{}, nil
	}
	// H[i][j]: best local score ending at query[i-1], ref[j-1].
	H := make([][]int32, m+1)
	for i := range H {
		H[i] = make([]int32, n+1)
	}
	best := int32(0)
	bi, bj := 0, 0
	for i := 1; i <= m; i++ {
		for j := 1; j <= n; j++ {
			diag := H[i-1][j-1]
			if query[i-1] == ref[j-1] {
				diag += int32(sc.Match)
			} else {
				diag += int32(sc.Mismatch)
			}
			v := diag
			if up := H[i-1][j] + int32(sc.Gap); up > v {
				v = up
			}
			if left := H[i][j-1] + int32(sc.Gap); left > v {
				v = left
			}
			if v < 0 {
				v = 0
			}
			H[i][j] = v
			if v > best {
				best, bi, bj = v, i, j
			}
		}
	}
	if best == 0 {
		return Result{Cells: m * n}, nil
	}
	// Traceback from (bi, bj) to the first zero cell.
	var ops []Op
	i, j := bi, bj
	for i > 0 && j > 0 && H[i][j] > 0 {
		diag := H[i-1][j-1]
		sub := int32(sc.Mismatch)
		if query[i-1] == ref[j-1] {
			sub = int32(sc.Match)
		}
		switch {
		case H[i][j] == diag+sub:
			ops = append(ops, OpMatch)
			i--
			j--
		case H[i][j] == H[i-1][j]+int32(sc.Gap):
			ops = append(ops, OpInsert)
			i--
		default:
			ops = append(ops, OpDelete)
			j--
		}
	}
	reverseOps(ops)
	return Result{
		Score:      int(best),
		QueryStart: i, QueryEnd: bi,
		RefStart: j, RefEnd: bj,
		Ops:   ops,
		Cells: m * n,
	}, nil
}

// CIGAR renders the traceback run-length encoded, for test messages.
func (r Result) CIGAR() string {
	return string(r.AppendCIGAR(make([]byte, 0, len(r.Ops))))
}
