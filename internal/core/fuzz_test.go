package core

import (
	"bytes"
	"testing"

	"bwaver/internal/dna"
	"bwaver/internal/fmindex"
)

// FuzzReadIndex hammers the index deserializer with arbitrary bytes: it
// must never panic, and anything it accepts must behave like an index
// (consistent lengths, queries that do not crash, located positions and an
// extracted text inside the reference).
func FuzzReadIndex(f *testing.F) {
	ref := dna.MustParseSeq("ACGTACGGTACCTTAGGCAATCGAACGTACGGTACCTTAGGC")
	for _, cfg := range []IndexConfig{{}, {Locate: LocateSampled, SampleRate: 4}, {Locate: LocateNone}} {
		ix, err := BuildIndex(ref, cfg)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := ix.writeTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		if cfg == (IndexConfig{}) {
			// Start on the rejection paths too: retired and undefined
			// flags, the retired tree kind.
			for _, c := range headerCorruptions(f, ix) {
				f.Add(c.data)
			}
		}
	}
	withFtab, err := BuildIndex(ref, IndexConfig{FtabK: 3})
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if _, err := withFtab.writeTo(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	for _, data := range ftabCorruptions(f, withFtab) {
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := readIndex(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := ix.RefLength()
		if n < 0 {
			t.Fatal("negative reference length")
		}
		// Queries on an accepted index must not crash and must return
		// sane ranges.
		res := ix.MapRead(dna.MustParseSeq("ACGT"))
		if res.Forward.Count() < 0 || res.Reverse.Count() < 0 {
			t.Fatalf("negative match count: %+v", res)
		}
		if res.Forward.Count() > n+1 {
			t.Fatalf("match count %d exceeds possible rows", res.Forward.Count())
		}
		// Locating the matches and the first rows, and extracting the text,
		// may fail on a corrupt index but may neither panic nor leave the text.
		for _, r := range []fmindex.Range{res.Forward, res.Reverse, {Start: 0, End: min(n, 63)}} {
			positions, err := ix.FM().LocateAppend(nil, r)
			if err != nil {
				continue
			}
			for _, p := range positions {
				if p < 0 || int(p) > n {
					t.Fatalf("located position %d outside [0,%d]", p, n)
				}
			}
		}
		if text, err := ix.ExtractReference(); err == nil && len(text) != n {
			t.Fatalf("extracted %d bases from an index over %d", len(text), n)
		}
	})
}
