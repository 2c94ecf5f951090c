package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"bwaver/internal/dna"
)

// CacheKey returns a content-addressed identity for the index BuildIndex
// would produce from ref under cfg: a hex SHA-256 over the reference bases,
// the contig layout, and every configuration field that changes the built
// structure. Two (reference, config) pairs share a key exactly when their
// indexes are interchangeable, so the key can safely address a shared index
// cache. The suffix-array algorithm is deliberately excluded — all three
// constructions produce identical arrays (cross-checked in the suffix-array
// tests), so it affects build time, not the artifact.
func CacheKey(ref dna.Seq, contigs *ContigSet, cfg IndexConfig) string {
	cfg = cfg.withDefaults()
	ftabK := max(cfg.FtabK, 0) // every non-positive value means "no table"
	h := sha256.New()
	// plain=false stays in the key so that every key written before the
	// plain-bit-vector option was removed still names the same index.
	fmt.Fprintf(h, "bwaver-index-v2|b=%d|sf=%d|plain=false|locate=%d|sample=%d|ftabk=%d|",
		cfg.RRR.BlockSize, cfg.RRR.SuperblockFactor, cfg.Locate, cfg.SampleRate, ftabK)
	if contigs != nil {
		for _, c := range contigs.Contigs() {
			fmt.Fprintf(h, "contig|%d|%s|%d|", len(c.Name), c.Name, c.Length)
		}
	}
	fmt.Fprintf(h, "ref|%d|", len(ref))
	// Stream the 2-bit codes in chunks to avoid a full-reference copy.
	var buf [4096]byte
	for off := 0; off < len(ref); {
		n := min(len(buf), len(ref)-off)
		for i := 0; i < n; i++ {
			buf[i] = byte(ref[off+i])
		}
		h.Write(buf[:n])
		off += n
	}
	return hex.EncodeToString(h.Sum(nil))
}
