package core

import (
	"fmt"

	"bwaver/internal/dna"
	"bwaver/internal/sam"
)

// SAM rendering for mem results: concatenated positions translate through
// the contig set (boundary-straddling placements are concatenation artifacts
// and demote to unmapped), strands render the spec's orientation rules, and
// mate pairs carry the RNEXT/PNEXT/TLEN triple plus the pairing flags.

// SAMRefSeqs returns the @SQ header entries for the index's references: the
// contig set when one is attached, else a single anonymous "ref" record.
func (ix *Index) SAMRefSeqs() []sam.RefSeq {
	if ix.contigs == nil {
		return []sam.RefSeq{{Name: "ref", Length: ix.RefLength()}}
	}
	out := make([]sam.RefSeq, ix.contigs.Count())
	for i, c := range ix.contigs.Contigs() {
		out[i] = sam.RefSeq{Name: c.Name, Length: c.Length}
	}
	return out
}

// ResolveSpan places a hit of span bases at pos in the concatenated
// reference on its record: the record's name and the 0-based offset in it.
// Without a contig set the whole reference is one record, "ref". ok is false
// for a hit that straddles two records or runs off the reference, a
// concatenation artifact with no locus of its own.
func (ix *Index) ResolveSpan(pos int32, span int) (name string, off int, ok bool) {
	if ix.contigs == nil {
		if pos < 0 || int(pos)+span > ix.RefLength() {
			return "", 0, false
		}
		return "ref", int(pos), true
	}
	c, off, ok := ix.contigs.Resolve(int(pos), span)
	return c.Name, off, ok
}

// MemRecord renders one single-end mem result as a SAM record.
func (ix *Index) MemRecord(name string, read dna.Seq, res MemResult) sam.Record {
	rec := sam.Record{QName: name, Seq: read.String()}
	if !res.Mapped() {
		rec.Flag = sam.FlagUnmapped
		return rec
	}
	rname, off, ok := ix.ResolveSpan(res.Best.Pos, res.Best.RefSpan)
	if !ok {
		// Concatenation artifact: no contiguous locus corresponds to it.
		rec.Flag = sam.FlagUnmapped
		return rec
	}
	rec.RName = rname
	rec.Pos = off + 1
	rec.MapQ = res.Best.MapQ
	rec.CIGAR = res.Best.CIGAR
	if !res.Best.Forward {
		rec.Flag |= sam.FlagReverse
		rec.Seq = read.ReverseComplement().String()
	}
	rec.Tags = memTags(res)
	return rec
}

// memTags renders the optional fields: alignment score, edit distance, and
// the competing score MAPQ discounted for (XS, bwa's convention), plus XR
// marking rescued mates.
func memTags(res MemResult) []string {
	tags := []string{
		fmt.Sprintf("AS:i:%d", res.Best.Score),
		fmt.Sprintf("NM:i:%d", res.Best.NM),
	}
	if res.SubScore > 0 {
		tags = append(tags, fmt.Sprintf("XS:i:%d", res.SubScore))
	}
	if res.Rescued {
		tags = append(tags, "XR:i:1")
	}
	return tags
}

// MemPairRecords renders a mate pair's results as two SAM records with the
// pairing flags and mate fields filled in.
func (ix *Index) MemPairRecords(name1, name2 string, r1, r2 dna.Seq, pr MemPairResult) (sam.Record, sam.Record) {
	rec1 := ix.MemRecord(name1, r1, pr.R1)
	rec2 := ix.MemRecord(name2, r2, pr.R2)
	rec1.Flag |= sam.FlagPaired | sam.FlagFirstInPair
	rec2.Flag |= sam.FlagPaired | sam.FlagSecondInPair
	fillMate(&rec1, &rec2)
	fillMate(&rec2, &rec1)
	if pr.Proper && !rec1.Unmapped() && !rec2.Unmapped() {
		rec1.Flag |= sam.FlagProperPair
		rec2.Flag |= sam.FlagProperPair
		// Signed template length: leftmost mate positive, other negative.
		if rec1.Pos <= rec2.Pos {
			rec1.TLen, rec2.TLen = pr.Insert, -pr.Insert
		} else {
			rec1.TLen, rec2.TLen = -pr.Insert, pr.Insert
		}
	}
	return rec1, rec2
}

// fillMate writes the mate-describing fields of rec from its mate's record.
func fillMate(rec, mate *sam.Record) {
	if mate.Unmapped() {
		rec.Flag |= sam.FlagMateUnmapped
		return
	}
	if mate.Flag&sam.FlagReverse != 0 {
		rec.Flag |= sam.FlagMateReverse
	}
	if rec.Unmapped() || rec.RName == mate.RName {
		rec.RNext = "="
	} else {
		rec.RNext = mate.RName
	}
	rec.PNext = mate.Pos
}
