package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"bwaver/internal/dna"
	"bwaver/internal/fastx"
)

func TestReadReferenceConcatenatesRecords(t *testing.T) {
	seq, contigs, replaced, err := ReadReference(strings.NewReader(">a\nACGT\n>b\nTTTT\n"))
	if err != nil {
		t.Fatal(err)
	}
	if replaced != 0 || !seq.Equal(dna.MustParseSeq("ACGTTTTT")) {
		t.Errorf("ReadReference = %q, %d replaced", seq, replaced)
	}
	if contigs.Count() != 2 || contigs.Contig(0).Name != "a" || contigs.Contig(1).Name != "b" {
		t.Errorf("ReadReference contigs wrong: %+v", contigs)
	}
	if _, _, _, err := ReadReference(strings.NewReader("")); err == nil {
		t.Error("empty reference accepted")
	}
	if _, _, _, err := ReadReference(strings.NewReader(">a\nACGT\n>a\nTTTT\n")); err == nil {
		t.Error("duplicate contig names accepted")
	}
}

// allocatedBy reports the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadReferenceBounded reads a three-contig, mixed-case, N-bearing,
// gzipped FASTA and holds the reader to its memory contract: on top of what
// the decoder itself allocates to hand over one record at a time, it pays for
// the sequence it returns (grown as contigs arrive) and nothing else. A route
// that collects the records, joins them and sanitizes a copy of the join pays
// for one more whole copy and fails this.
func TestReadReferenceBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var gz bytes.Buffer
	w := fastx.NewWriter(&gz, fastx.FASTA, true)
	var want dna.Seq
	var names []string
	wantReplaced := 0
	for c, n := range []int{300_000, 150_000, 250_000} {
		raw := make([]byte, n)
		for i := range raw {
			raw[i] = "ACGTacgtN"[rng.Intn(9)]
		}
		s, r := dna.Sanitize(raw, dna.A)
		want, wantReplaced = append(want, s...), wantReplaced+r
		names = append(names, "chr"+string(rune('1'+c)))
		if err := w.Write(&fastx.Record{ID: names[c], Seq: raw}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var seq dna.Seq
	var contigs *ContigSet
	var replaced int
	var err error
	total := allocatedBy(func() { seq, contigs, replaced, err = ReadReference(bytes.NewReader(gz.Bytes())) })
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Equal(want) || replaced != wantReplaced || wantReplaced == 0 {
		t.Fatalf("sequence differs or %d replaced, want %d", replaced, wantReplaced)
	}
	if contigs.Count() != 3 || contigs.Total() != len(want) {
		t.Fatalf("contigs %+v", contigs.Contigs())
	}
	for i, c := range contigs.Contigs() {
		if c.Name != names[i] {
			t.Errorf("contig %d named %q, want %q", i, c.Name, names[i])
		}
	}
	if raceEnabled {
		return // the detector's shadow state allocates
	}
	decoder := allocatedBy(func() { _, err = fastx.ReadAll(bytes.NewReader(gz.Bytes())) })
	if err != nil {
		t.Fatal(err)
	}
	perBase := func(n uint64) float64 { return float64(n) / float64(len(want)) }
	t.Logf("allocated %.2f bytes per base, of which the decoder %.2f", perBase(total), perBase(decoder))
	// Appending three contigs regrows the sequence twice: 2.15 bytes per base
	// here, 1.0 for a single-contig reference.
	if own := perBase(total) - perBase(decoder); own > 2.5 {
		t.Errorf("ReadReference allocated %.2f bytes per base beyond the decoder's, want <= 2.5", own)
	}
}
