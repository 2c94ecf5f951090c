package core

import (
	"slices"
	"testing"

	"bwaver/internal/dna"
	"bwaver/internal/readsim"
)

func TestNewContigSetValidation(t *testing.T) {
	cases := []struct {
		names   []string
		lengths []int
	}{
		{[]string{"a"}, []int{1, 2}},
		{nil, nil},
		{[]string{""}, []int{5}},
		{[]string{"a", "a"}, []int{5, 5}},
		{[]string{"a"}, []int{0}},
		{[]string{"a"}, []int{-3}},
	}
	for _, c := range cases {
		if _, err := NewContigSet(c.names, c.lengths); err == nil {
			t.Errorf("NewContigSet(%v, %v) accepted invalid input", c.names, c.lengths)
		}
	}
}

func TestContigResolve(t *testing.T) {
	cs, err := NewContigSet([]string{"chr1", "chr2", "chr3"}, []int{100, 50, 200})
	if err != nil {
		t.Fatal(err)
	}
	if cs.total != 350 || cs.Count() != 3 {
		t.Fatalf("Total=%d Count=%d", cs.total, cs.Count())
	}
	cases := []struct {
		pos, span  int
		wantName   string
		wantOffset int
		wantOK     bool
	}{
		{0, 10, "chr1", 0, true},
		{99, 1, "chr1", 99, true},
		{100, 1, "chr2", 0, true},
		{149, 1, "chr2", 49, true},
		{150, 200, "chr3", 0, true},
		{349, 1, "chr3", 199, true},
		{95, 10, "", 0, false},  // straddles chr1/chr2
		{149, 2, "", 0, false},  // straddles chr2/chr3
		{340, 20, "", 0, false}, // runs off the end
		{-1, 5, "", 0, false},
		{350, 0, "", 0, false},
	}
	for _, c := range cases {
		contig, off, ok := cs.Resolve(c.pos, c.span)
		if ok != c.wantOK || (ok && (contig.Name != c.wantName || off != c.wantOffset)) {
			t.Errorf("Resolve(%d,%d) = %v,%d,%v; want %s,%d,%v",
				c.pos, c.span, contig.Name, off, ok, c.wantName, c.wantOffset, c.wantOK)
		}
	}
}

func TestIndexContigsRoundTrip(t *testing.T) {
	// Two contigs concatenated; a read planted inside contig 2 must resolve
	// there, before and after serialization.
	g1, _ := readsim.Genome(readsim.GenomeConfig{Length: 3000, Seed: 1})
	g2, _ := readsim.Genome(readsim.GenomeConfig{Length: 2000, Seed: 2})
	ref := append(g1.Clone(), g2...)
	ix := mustBuild(t, ref, IndexConfig{})
	cs, err := NewContigSet([]string{"chrA", "chrB"}, []int{3000, 2000})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.SetContigs(cs); err != nil {
		t.Fatal(err)
	}
	check := func(ix *Index) {
		t.Helper()
		read := ref[3500:3550]
		ps := mapLocated(t, ix, read).ForwardPositions
		resolved := false
		for _, p := range ps {
			contig, off, ok := ix.Contigs().Resolve(int(p), len(read))
			if ok && contig.Name == "chrB" && off == 500 {
				resolved = true
			}
		}
		if !resolved {
			t.Error("read planted in chrB not resolved there")
		}
	}
	check(ix)
	back := roundTrip(t, ix)
	if back.Contigs() == nil || back.Contigs().Count() != 2 {
		t.Fatal("contigs lost in serialization")
	}
	check(back)
}

func TestSetContigsLengthMismatch(t *testing.T) {
	ref := testGenome(t, 1000)
	ix := mustBuild(t, ref, IndexConfig{})
	cs, _ := NewContigSet([]string{"x"}, []int{999})
	if err := ix.SetContigs(cs); err == nil {
		t.Error("accepted contigs not covering the reference")
	}
	if err := ix.SetContigs(nil); err != nil {
		t.Errorf("clearing contigs failed: %v", err)
	}
}

func TestBoundarySpanningHitRejected(t *testing.T) {
	// Plant the same pattern so one occurrence straddles the boundary.
	pattern := dna.MustParseSeq("ACGTTGCAGGTCATCGAATC")
	g1, _ := readsim.Genome(readsim.GenomeConfig{Length: 1000, Seed: 3})
	g2, _ := readsim.Genome(readsim.GenomeConfig{Length: 1000, Seed: 4})
	ref := append(g1.Clone(), g2...)
	copy(ref[990:], pattern) // straddles positions 990..1010
	copy(ref[100:], pattern) // clean occurrence inside contig 1
	ix := mustBuild(t, ref, IndexConfig{})
	cs, _ := NewContigSet([]string{"c1", "c2"}, []int{1000, 1000})
	if err := ix.SetContigs(cs); err != nil {
		t.Fatal(err)
	}
	ps := slices.Clone(mapLocated(t, ix, pattern).ForwardPositions)
	slices.Sort(ps)
	if !slices.Equal(ps, []int32{100, 990}) {
		t.Fatalf("planted pattern found at %v, want [100 990]", ps)
	}
	clean, spanning := 0, 0
	for _, p := range ps {
		if _, _, ok := cs.Resolve(int(p), len(pattern)); ok {
			clean++
		} else {
			spanning++
		}
	}
	if clean < 1 || spanning < 1 {
		t.Fatalf("expected both clean and boundary-spanning hits, got %d/%d", clean, spanning)
	}
}
