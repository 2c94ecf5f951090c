package core

import (
	"math/rand"
	"slices"
	"testing"

	"bwaver/internal/dna"
	"bwaver/internal/readsim"
)

// rankedRow is what one orientation of a read reports, whatever form its
// range takes: the count, the steps and the positions in ascending order.
type rankedRow struct {
	count, steps int
	positions    []int32
}

// TestExactTextFinishMatchesRanked holds exact search that finishes on the
// packed text to the paper's ranked search on full, sampled-8, sampled-32
// and count-only indexes, each as built (text attached) and as read back
// from its file (no text): with the prefix table and without, on 1 and 3
// workers, count-only and locating, every read must give the ranked
// search's counts, steps and positions. The reads cover segments written 16 and 17 times (the most occurrences a
// search locates and one more), the text's first and last bases, symbols
// outside the alphabet and an empty read.
func TestExactTextFinishMatchesRanked(t *testing.T) {
	ref := testGenome(t, 30000)
	rng := rand.New(rand.NewSource(49))
	var segs []dna.Seq
	for i, copies := range []int{16, 17} {
		seg := make(dna.Seq, 60)
		for j := range seg {
			seg[j] = dna.Base(rng.Intn(4))
		}
		for c := range copies {
			at := 1000 + (i*17+c)*400
			ref[at-1] = dna.Base(c % 4) // copies differ in what precedes them
			copy(ref[at:], seg)
		}
		segs = append(segs, seg)
	}
	sim, err := readsim.Simulate(ref, readsim.ReadsConfig{Count: 300, Length: 50, MappingRatio: 0.7, RevCompFraction: 0.5, Seed: 49})
	if err != nil {
		t.Fatal(err)
	}
	reads := readsim.Seqs(sim)
	n := len(ref)
	for _, seg := range segs {
		reads = append(reads, seg, seg[12:], seg[:25], seg.ReverseComplement())
	}
	reads = append(reads, ref[:40], ref[:1], ref[n-40:], ref[n-1:], ref[n-13:].ReverseComplement(), dna.Seq{})
	for _, at := range []int{0, 7, 24, 49} {
		bad := ref[5000 : 5000+50].Clone()
		bad[at] = 4 // not a base: A, C, G or T
		reads = append(reads, bad)
	}

	ranked := func(ix *Index, useFtab bool, read dna.Seq) [2]rankedRow {
		var rows [2]rankedRow
		if len(read) == 0 {
			return rows
		}
		locates := ix.Config().Locate != LocateNone
		for o, pattern := range [2][]uint8{patternOf(read), patternOf(read.ReverseComplement())} {
			r, steps := ix.fm.CountSteps(pattern)
			if useFtab {
				r, steps = ix.fm.SearchWithFtabSteps(pattern)
			}
			rows[o] = rankedRow{count: r.Count(), steps: steps}
			if locates {
				ps, err := ix.fm.Locate(r)
				if err != nil {
					t.Fatal(err)
				}
				slices.Sort(ps)
				rows[o].positions = ps
			}
		}
		return rows
	}
	check := func(t *testing.T, what string, got []MapResult, want [][2]rankedRow, located bool) {
		t.Helper()
		for i, res := range got {
			w := want[i]
			steps := max(w[0].steps, w[1].steps)
			if res.Forward.Count() != w[0].count || res.Reverse.Count() != w[1].count || res.Steps != steps {
				t.Fatalf("%s read %d %v: counts %d/%d in %d steps, ranked %d/%d in %d",
					what, i, reads[i], res.Forward.Count(), res.Reverse.Count(), res.Steps, w[0].count, w[1].count, steps)
			}
			if !located {
				continue
			}
			for o, ps := range [2][]int32{res.ForwardPositions, res.ReversePositions} {
				ps = slices.Clone(ps)
				slices.Sort(ps)
				if !slices.Equal(ps, w[o].positions) {
					t.Fatalf("%s read %d %v orientation %d: positions %v, ranked %v", what, i, reads[i], o, ps, w[o].positions)
				}
			}
		}
	}

	for _, cfg := range []IndexConfig{
		{FtabK: 8},
		{FtabK: 8, Locate: LocateSampled, SampleRate: 8},
		{FtabK: 8, Locate: LocateSampled, SampleRate: 32},
		{FtabK: 8, Locate: LocateNone},
	} {
		built := mustBuild(t, ref, cfg)
		loaded := roundTrip(t, built)
		locates := cfg.Locate != LocateNone
		for _, kind := range []struct {
			name string
			ix   *Index
		}{{"built", built}, {"loaded", loaded}} {
			ix := kind.ix
			for _, useFtab := range []bool{true, false} {
				want := make([][2]rankedRow, len(reads))
				for i, read := range reads {
					want[i] = ranked(ix, useFtab, read)
				}
				onText := 0
				for _, workers := range []int{1, 3} {
					name := func(mode string) string {
						return cfg.Locate.String() + "/" + kind.name + "/" + mode
					}
					dst := make([]MapResult, len(reads))
					if _, err := ix.MapReadsIntoFtab(dst, reads, MapOptions{Workers: workers}, useFtab); err != nil {
						t.Fatal(err)
					}
					check(t, name("count-only"), dst, want, false)
					for _, res := range dst {
						if ix.fm.OnText(res.Forward) {
							onText++
						}
						if ix.fm.OnText(res.Reverse) {
							onText++
						}
					}
					if !locates {
						continue
					}
					if _, err := ix.MapReadsIntoFtab(dst, reads, MapOptions{Workers: workers, Locate: true}, useFtab); err != nil {
						t.Fatal(err)
					}
					check(t, name("locating"), dst, want, true)
				}
				if textOn := kind.ix == built && locates; textOn != (onText > 0) {
					t.Errorf("%s/%s ftab=%v: %d orientations finished on the text", cfg.Locate, kind.name, useFtab, onText)
				}
			}
		}
	}
}
