package align

import (
	"math/rand"
	"slices"
	"testing"

	"bwaver/internal/dna"
)

// referenceBandedSW is Extender.bandedSW as it was before the row loop moved
// into fillRow, kept as the kernel's reference.
func (e *Extender) referenceBandedSW(query, ref dna.Seq, delta, band int, sc Scoring) (Result, bool) {
	m, n := len(query), len(ref)
	if m == 0 || n == 0 {
		return Result{}, false
	}
	// Row i of the band is H[i*s : i*s+w], k = j - i - delta + band, and
	// one zero pad column follows it: the up-neighbour of k = w-1 reads 0,
	// which loses to the clamp at 0 since Gap < 0, as an absent one does.
	w := 2*band + 1
	s := w + 1
	H := e.grid((m + 1) * s)
	match, mismatch, gap := int32(sc.Match), int32(sc.Mismatch), int32(sc.Gap)
	zd := int32(0)
	if z := e.zdrop(); z > 0 {
		zd = int32(z)
	}
	cells := 0
	best := int32(0)
	bi, bk, bestRow := 0, 0, 0
	for i := 1; i <= m; i++ {
		jLo := max(1, i+delta-band)
		jHi := min(n, i+delta+band)
		rowMax := int32(0)
		if jLo <= jHi {
			kLo := jLo - i - delta + band
			prev, cur := H[(i-1)*s:i*s], H[i*s:(i+1)*s]
			q, r := query[i-1], ref[jLo-1:jHi]
			cells += len(r)
			left := int32(0) // the left neighbour of kLo is 0 or absent
			for x, c := range r {
				k := kLo + x
				v := prev[k] + mismatch
				if q == c {
					v = prev[k] + match
				}
				v = max(v, prev[k+1]+gap, left+gap, 0)
				cur[k], left = v, v
				rowMax = max(rowMax, v)
			}
			// The first cell of the row holding its maximum is where a
			// row-major scan for a strictly larger score stops.
			if rowMax > best {
				best, bi, bestRow = rowMax, i, i
				for bk = kLo; cur[bk] != rowMax; bk++ {
				}
			}
		}
		// Z-drop: once past the best row, a row whose maximum has sunk more
		// than ZDrop below the best cannot plausibly recover; stop charging
		// cells for it.
		if zd > 0 && i > bestRow && rowMax+zd < best {
			break
		}
	}
	if best == 0 {
		return Result{Cells: cells}, false
	}
	// Traceback from the best cell, mirroring the forward preference order
	// (diagonal, up, left). Ops append to the slab and are reversed in
	// place; edge reports any visit to the outermost diagonals.
	edge := bk == 0 || bk == w-1
	opsStart := len(e.ops)
	i, k := bi, bk
	for i > 0 {
		j := i + delta + k - band
		if j <= 0 || H[i*s+k] <= 0 {
			break
		}
		if k == 0 || k == w-1 {
			edge = true
		}
		sub := mismatch
		if query[i-1] == ref[j-1] {
			sub = match
		}
		switch {
		case H[i*s+k] == H[(i-1)*s+k]+sub:
			e.ops = append(e.ops, OpMatch)
			i--
		case k+1 < w && H[i*s+k] == H[(i-1)*s+k+1]+gap:
			e.ops = append(e.ops, OpInsert)
			i--
			k++
		default:
			e.ops = append(e.ops, OpDelete)
			k--
		}
	}
	sub := e.ops[opsStart:len(e.ops):len(e.ops)]
	reverseOps(sub)
	return Result{
		Score:      int(best),
		QueryStart: i, QueryEnd: bi,
		RefStart: i + delta + k - band, RefEnd: bi + delta + bk - band,
		Ops:   sub,
		Cells: cells,
	}, edge
}

// randomPair draws a query and a reference over an alphabet of two or four
// bases — two makes equal scores, hence ties, common — the reference half
// the time a mutated copy of the query with flanks, so that long alignments
// and indels occur.
func randomPair(rng *rand.Rand, maxQuery, maxRef int) (dna.Seq, dna.Seq) {
	sigma := 2 + 2*rng.Intn(2)
	draw := func(n int) dna.Seq {
		s := make(dna.Seq, n)
		for i := range s {
			s[i] = dna.Base(rng.Intn(sigma))
		}
		return s
	}
	query := draw(1 + rng.Intn(maxQuery))
	if rng.Intn(2) == 0 {
		return query, draw(1 + rng.Intn(maxRef))
	}
	ref := draw(rng.Intn(maxRef / 4))
	for _, b := range query {
		switch rng.Intn(20) {
		case 0: // substitution
			ref = append(ref, dna.Base(rng.Intn(sigma)))
		case 1: // deletion from the query
			ref = append(ref, b, dna.Base(rng.Intn(sigma)))
		case 2: // insertion to the query
		default:
			ref = append(ref, b)
		}
	}
	return query, append(ref, draw(rng.Intn(maxRef/4))...)
}

func randomScoring(rng *rand.Rand) Scoring {
	return Scoring{Match: 1 + rng.Intn(4), Mismatch: -1 - rng.Intn(6), Gap: -1 - rng.Intn(8)}
}

// TestBandedSWMatchesReference drives the banded kernel and its pre-fillRow
// form with random queries, references, diagonals, bands, scorings and
// z-drops: score, cells, coordinates, traceback and the band-edge signal
// must all be equal.
func TestBandedSWMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var got, want Extender
	for trial := 0; trial < 20000; trial++ {
		query, ref := randomPair(rng, 160, 220)
		delta, band, sc := rng.Intn(61)-20, rng.Intn(21), randomScoring(rng)
		got.ZDrop = []int{-1, 0, 1 + rng.Intn(150)}[rng.Intn(3)]
		want.ZDrop = got.ZDrop
		g, gEdge := got.bandedSW(query, ref, delta, band, sc)
		w, wEdge := want.referenceBandedSW(query, ref, delta, band, sc)
		if gEdge != wEdge || !sameResult(g, w) {
			t.Fatalf("trial %d (delta %d, band %d, %+v, zdrop %d):\nedge %v %+v %s\nreference edge %v %+v %s",
				trial, delta, band, sc, got.ZDrop, gEdge, g, g.CIGAR(), wEdge, w, w.CIGAR())
		}
		got.Reset()
		want.Reset()
	}
}

// TestExtenderSmithWatermanMatchesPackage holds the rescue kernel to the
// package SmithWaterman, ties included: the same optimum cell — the first
// in row-major order — and the same traceback from it.
func TestExtenderSmithWatermanMatchesPackage(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var e Extender
	for trial := 0; trial < 3000; trial++ {
		query, ref := randomPair(rng, 60, 120)
		sc := randomScoring(rng)
		got, err := e.SmithWaterman(query, ref, sc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SmithWaterman(query, ref, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(got, want) {
			t.Fatalf("trial %d (%+v):\n%+v %s\npackage %+v %s", trial, sc, got, got.CIGAR(), want, want.CIGAR())
		}
		e.Reset()
	}
}

func sameResult(a, b Result) bool {
	return a.Score == b.Score && a.QueryStart == b.QueryStart && a.QueryEnd == b.QueryEnd &&
		a.RefStart == b.RefStart && a.RefEnd == b.RefEnd && a.Cells == b.Cells && slices.Equal(a.Ops, b.Ops)
}
