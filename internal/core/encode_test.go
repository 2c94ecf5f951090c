package core

import (
	"testing"

	"bwaver/internal/dna"
)

// TestEncodeWordwise holds chunkBuffer.encode, which copies and
// reverse-complements eight bases a word, to the base-by-base definition at
// every length from 0 to 70 with every byte value at every position: the
// forward pattern is the read's codes, and the reverse complement is
// Complement byte for byte, so a code outside A/C/G/T complements as
// 3-(b&3) does (4 to T). Reads of one chunk share the buffer back to back.
func TestEncodeWordwise(t *testing.T) {
	var buf chunkBuffer
	for m := 0; m <= 70; m++ {
		reads := make([]dna.Seq, 256)
		for v := range reads {
			reads[v] = make(dna.Seq, m)
			for j := range reads[v] {
				reads[v][j] = dna.Base(v + 37*j)
			}
		}
		buf.encode(reads)
		for v, read := range reads {
			fw, rc := buf.pats[2*v], buf.pats[2*v+1]
			if len(fw) != m || len(rc) != m {
				t.Fatalf("length %d, read %d: patterns of %d and %d symbols", m, v, len(fw), len(rc))
			}
			for j, b := range read {
				if fw[j] != uint8(b) || rc[m-1-j] != uint8(b.Complement()) {
					t.Fatalf("length %d, read %d, base %d (%d): forward %d, reverse complement %d, want %d", m, v, j, b, fw[j], rc[m-1-j], b.Complement())
				}
			}
		}
	}
}
