package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/fmindex"
	"bwaver/internal/qc"
	"bwaver/internal/sam"
)

// Rows is the one encoder of every row format: the exact and k-mismatch TSV,
// the seed-and-extend SAM, the exact SAM of `bwaver map -format sam`, and the
// pair TSV and SAM of `bwaver map -reads2`. A run renders each batch into it,
// the first batch under the header, and hands the text to its front end.
// Rows are appended with strconv, not formatted by fmt: at thousands of rows
// per job that was a warm job's largest cost outside mapping.
type Rows struct {
	ix      *core.Index
	contigs *core.ContigSet
	// Stream has every batch also render the NDJSON lines of a served job's
	// result stream: one qc_reject line per read the batch's policy dropped,
	// then one line per row, a TSV row's cells under its header's column
	// names or a seed-and-extend SAM record's placement and scoring. The
	// exact and pair SAM formats render no row lines.
	Stream bool

	// text and lines are the batch in hand's rendering: its TSV or SAM text
	// and its NDJSON lines.
	text, lines bytes.Buffer
	// tsv and nd are the row in hand, taken from the free space of text and
	// lines and written back when it ends; cells counts its cells.
	tsv, nd []byte
	cells   int
	// sw is the SAM formats' one writer for the run, so the header lands in
	// the first batch and every later batch renders bare records.
	sw      *sam.Writer
	mapped  int
	dropped int
	// concordant and ambiguous count the pairs of a pair run.
	concordant, ambiguous int

	// Row-building scratch: the ordered copy of a multi-position strand and
	// a k-mismatch row's located positions.
	sorted, ps []int32
}

// NewRows returns an encoder for results mapped on ix.
func NewRows(ix *core.Index) *Rows { return &Rows{ix: ix, contigs: ix.Contigs()} }

// Mapped is how many rendered reads mapped.
func (r *Rows) Mapped() int { return r.mapped }

// Dropped is how many exact SAM hits, or pair placements, were left out for
// straddling two reference records.
func (r *Rows) Dropped() int { return r.dropped }

// Pairs is how many rendered pairs were concordant and how many ambiguous.
func (r *Rows) Pairs() (concordant, ambiguous int) { return r.concordant, r.ambiguous }

// idSanitizer strips the TSV structural characters from user-supplied read
// IDs: an embedded tab or newline would otherwise corrupt the results file.
var idSanitizer = strings.NewReplacer("\t", " ", "\n", " ", "\r", " ")

// sanitizeID makes a read ID safe to embed in a TSV row.
func sanitizeID(id string) string { return idSanitizer.Replace(id) }

// samQName makes a read ID usable as a SAM QNAME: the writer rejects
// whitespace, and an anonymous read still needs a name; i is the read's place
// in the run.
func samQName(id string, i int) string {
	id = strings.Map(func(r rune) rune {
		switch r {
		case ' ', '\t', '\n', '\r':
			return '_'
		}
		return r
	}, id)
	if id == "" {
		return fmt.Sprintf("read-%d", i+1)
	}
	return id
}

// appendPositions appends one strand's positions as the TSV cell: "-" for
// none, else ascending and comma-joined — contig-relative ("name:offset", or
// "boundary@pos" for a hit straddling two records) when the reference had
// several records. Two or more positions are ordered in r.sorted, never in
// the caller's slice.
func (r *Rows) appendPositions(dst []byte, ps []int32, span int) []byte {
	if len(ps) == 0 {
		return append(dst, '-')
	}
	if len(ps) > 1 {
		r.sorted = append(r.sorted[:0], ps...)
		slices.Sort(r.sorted)
		ps = r.sorted
	}
	multi := r.contigs != nil && r.contigs.Count() > 1
	for i, p := range ps {
		if i > 0 {
			dst = append(dst, ',')
		}
		if !multi {
			dst = strconv.AppendInt(dst, int64(p), 10)
		} else if c, off, ok := r.contigs.Resolve(int(p), span); ok {
			dst = append(append(dst, c.Name...), ':')
			dst = strconv.AppendInt(dst, int64(off), 10)
		} else {
			dst = append(dst, "boundary@"...)
			dst = strconv.AppendInt(dst, int64(p), 10)
		}
	}
	return dst
}

// header writes a TSV header ahead of the run's first row.
func (r *Rows) header(off int, h string) {
	if off == 0 {
		r.text.WriteString(h)
	}
}

// open starts a cell of the row in hand, a tab ahead of every TSV cell but
// the first, and returns the TSV text to append the cell's value to.
func (r *Rows) open() []byte {
	if r.cells > 0 {
		r.tsv = append(r.tsv, '\t')
	} else {
		r.tsv, r.nd = r.text.AvailableBuffer(), r.lines.AvailableBuffer()
	}
	return r.tsv
}

// close ends the cell open started, tsv being the text with its value
// appended. Streaming, the NDJSON line takes the value under the column's
// name: quoted, or as it is for a count or a flag, which read the same in
// both forms.
func (r *Rows) close(name string, tsv []byte, quote bool) {
	from := len(r.tsv)
	r.tsv = tsv
	if r.Stream {
		if r.cells == 0 {
			r.nd = append(r.nd, '{')
		} else {
			r.nd = append(r.nd, ',')
		}
		r.nd = append(append(append(r.nd, '"'), name...), `":`...)
		if quote {
			r.nd = appendJSONString(r.nd, tsv[from:])
		} else {
			r.nd = append(r.nd, tsv[from:]...)
		}
	}
	r.cells++
}

// str, num, flag and positions append one cell of each kind to the row in
// hand.
func (r *Rows) str(name, s string) {
	r.close(name, append(r.open(), s...), true)
}

func (r *Rows) num(name string, n int) {
	r.close(name, strconv.AppendInt(r.open(), int64(n), 10), false)
}

func (r *Rows) flag(name string, b bool) {
	r.close(name, strconv.AppendBool(r.open(), b), false)
}

func (r *Rows) positions(name string, ps []int32, span int) {
	r.close(name, r.appendPositions(r.open(), ps, span), true)
}

// end closes the row in hand and writes it back. A row at a time, not a
// batch, so the buffers grow by doubling.
func (r *Rows) end() {
	r.text.Write(append(r.tsv, '\n'))
	if r.Stream {
		r.lines.Write(append(r.nd, "}\n"...))
	}
	r.cells = 0
}

// rejected renders, when streaming, the qc_reject line of each read the
// batch's policy dropped, ahead of the batch's rows: a client tailing the
// job sees which reads were dropped, and why, where they were dropped.
// Reasons outside the fixed enum (impossible from the gate, conceivable from
// a tampered journal) are clamped to "invalid", so the stream never carries
// a minted code.
func (r *Rows) rejected(rejects []qc.Reject) {
	if !r.Stream {
		return
	}
	for _, rej := range rejects {
		reason := rej.Reason
		if !qc.ValidReason(reason) {
			reason = "invalid"
		}
		nd := strconv.AppendInt(append(r.lines.AvailableBuffer(), `{"event":"qc_reject","index":`...), int64(rej.Index), 10)
		if rej.ID != "" {
			nd = appendJSONString(append(nd, `,"id":`...), sanitizeID(rej.ID))
		}
		nd = appendJSONString(append(nd, `,"reason":`...), reason)
		if rej.Detail != "" {
			nd = appendJSONString(append(nd, `,"detail":`...), rej.Detail)
		}
		r.lines.Write(append(nd, "}\n"...))
	}
}

// appendJSONString appends s as a JSON string literal, byte for byte what
// encoding/json writes for a string field: printable ASCII outside the
// characters json escapes (quote, backslash, and <, >, & for HTML safety) is
// copied between quotes; anything else — control bytes, non-ASCII, invalid
// UTF-8 — goes through json.Marshal itself.
func appendJSONString[T string | []byte](dst []byte, s T) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			quoted, _ := json.Marshal(string(s)) // a string cannot fail to marshal
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// exact renders one exact-matching batch, whose first read is the run's
// off-th.
func (r *Rows) exact(off int, ids []string, reads []dna.Seq, results []core.MapResult) error {
	r.header(off, "read\tmapped\tfw_count\tfw_positions\trc_count\trc_positions\n")
	for i, res := range results {
		span := len(reads[i])
		r.str("read", sanitizeID(ids[i]))
		r.flag("mapped", r.count(res.Mapped()))
		r.num("fw_count", res.Forward.Count())
		r.positions("fw_positions", res.ForwardPositions, span)
		r.num("rc_count", res.Reverse.Count())
		r.positions("rc_positions", res.ReversePositions, span)
		r.end()
	}
	return nil
}

// approx renders one mismatch-budget batch. best_positions is where the best
// stratum occurs: the exact hits when there are any, else the rescue's lowest
// mismatch count; "-" when locate is off.
func (r *Rows) approx(off int, ids []string, reads []dna.Seq, results []core.ApproxResult, locate bool) error {
	r.header(off, "read\tmapped\tbest_mismatches\toccurrences\tbest_positions\n")
	for i, res := range results {
		best := res.BestMismatches()
		r.ps = r.ps[:0]
		if locate {
			var err error
			if r.ps, err = r.locateBest(r.ps, res, best); err != nil {
				return err
			}
		}
		r.str("read", sanitizeID(ids[i]))
		r.flag("mapped", r.count(res.Mapped()))
		r.num("best_mismatches", best)
		r.num("occurrences", res.Occurrences())
		r.positions("best_positions", r.ps, len(reads[i]))
		r.end()
	}
	return nil
}

// count counts a rendered read that mapped and returns mapped.
func (r *Rows) count(mapped bool) bool {
	if mapped {
		r.mapped++
	}
	return mapped
}

// locateBest appends the positions of res's best stratum to ps: its located
// exact hits, or the rescue's strata at the best mismatch count.
func (r *Rows) locateBest(ps []int32, res core.ApproxResult, best int) ([]int32, error) {
	ps = append(append(ps, res.Exact.ForwardPositions...), res.Exact.ReversePositions...)
	for _, set := range [2][]fmindex.ApproxMatch{res.Forward, res.Reverse} {
		for _, m := range set {
			if m.Mismatches != best {
				continue
			}
			var err error
			if ps, err = r.ix.FM().LocateAppend(ps, m.Range); err != nil {
				return ps, err
			}
		}
	}
	return ps, nil
}

// samWriter opens the run's SAM writer on its first batch.
func (r *Rows) samWriter() (err error) {
	if r.sw == nil {
		r.sw, err = sam.NewWriter(&r.text, r.ix.SAMRefSeqs())
	}
	return err
}

// mem renders one seed-and-extend batch as SAM records, mates as pairs when
// opts pairs them; a batch's odd trailing read maps single-end.
func (r *Rows) mem(off int, ids []string, reads []dna.Seq, results []core.MemResult, opts core.MemOptions) error {
	if err := r.samWriter(); err != nil {
		return err
	}
	for i := 0; i < len(results); {
		if opts.Paired && i+1 < len(results) {
			pr := core.MemPairFromResults(results[i], results[i+1], opts)
			rec1, rec2 := r.ix.MemPairRecords(samQName(ids[i], off+i), samQName(ids[i+1], off+i+1),
				reads[i], reads[i+1], pr)
			if err := r.memRecord(rec1, &results[i]); err != nil {
				return err
			}
			if err := r.memRecord(rec2, &results[i+1]); err != nil {
				return err
			}
			i += 2
			continue
		}
		if err := r.memRecord(r.ix.MemRecord(samQName(ids[i], off+i), reads[i], results[i]), &results[i]); err != nil {
			return err
		}
		i++
	}
	return r.sw.Flush()
}

// memRecord renders one seed-and-extend record and, when streaming, its
// NDJSON line: one per read, so stream event ids count reads though the SAM
// text holds header lines. An unmapped read's line leaves out the placement
// keys and reads 0 for its MAPQ and scoring.
func (r *Rows) memRecord(rec sam.Record, res *core.MemResult) error {
	mapped := r.count(!rec.Unmapped())
	if r.Stream {
		mapq, score, nm := 0, 0, 0
		nd := appendJSONString(append(r.lines.AvailableBuffer(), `{"read":`...), rec.QName)
		nd = strconv.AppendBool(append(nd, `,"mapped":`...), mapped)
		nd = strconv.AppendInt(append(nd, `,"flag":`...), int64(rec.Flag), 10)
		if mapped {
			mapq, score, nm = int(rec.MapQ), res.Best.Score, res.Best.NM
			if rec.RName != "" {
				nd = appendJSONString(append(nd, `,"rname":`...), rec.RName)
			}
			if rec.Pos != 0 {
				nd = strconv.AppendInt(append(nd, `,"pos":`...), int64(rec.Pos), 10)
			}
		}
		nd = strconv.AppendInt(append(nd, `,"mapq":`...), int64(mapq), 10)
		if mapped && rec.CIGAR != "" {
			nd = appendJSONString(append(nd, `,"cigar":`...), rec.CIGAR)
		}
		if mapped && rec.TLen != 0 {
			nd = strconv.AppendInt(append(nd, `,"tlen":`...), int64(rec.TLen), 10)
		}
		nd = strconv.AppendInt(append(nd, `,"score":`...), int64(score), 10)
		nd = strconv.AppendInt(append(nd, `,"nm":`...), int64(nm), 10)
		if mapped && res.Rescued {
			nd = append(nd, `,"rescued":true`...)
		}
		r.lines.Write(append(nd, "}\n"...))
	}
	return r.sw.Write(rec)
}

// exactSAM renders one exact-matching batch as SAM: the first resolvable hit
// of a read is primary, further hits secondary, reverse-strand hits carry the
// reverse flag and the reverse-complemented sequence, per the spec; a read
// without one is an unmapped record.
func (r *Rows) exactSAM(off int, ids []string, reads []dna.Seq, results []core.MapResult) error {
	if err := r.samWriter(); err != nil {
		return err
	}
	for i, res := range results {
		read, name := reads[i], samQName(ids[i], off+i)
		primary := false
		for strand, ps := range [2][]int32{res.ForwardPositions, res.ReversePositions} {
			seq, flag := read, uint16(0)
			if strand == 1 {
				seq, flag = read.ReverseComplement(), sam.FlagReverse
			}
			for _, p := range ps {
				rname, pos, ok := r.ix.ResolveSpan(p, len(read))
				if !ok {
					r.dropped++
					continue
				}
				if primary {
					flag |= sam.FlagSecondary
				}
				primary = true
				if err := r.sw.Write(sam.Record{
					QName: name, Flag: flag, RName: rname, Pos: pos + 1,
					MapQ: 255, CIGAR: strconv.Itoa(len(read)) + "M", Seq: seq.String(),
					Tags: []string{"NM:i:0"},
				}); err != nil {
					return err
				}
			}
		}
		if primary {
			r.mapped++
		} else if err := r.sw.Write(sam.Record{QName: name, Flag: sam.FlagUnmapped, Seq: read.String()}); err != nil {
			return err
		}
	}
	return r.sw.Flush()
}

// placePair pairs the mates at i and i+1 and counts the pair. It returns the
// placements whose fragment lies inside one reference record, best first;
// the others are dropped.
func (r *Rows) placePair(reads []dna.Seq, results []core.MapResult, i int, opts core.PairOptions) ([]core.PairPlacement, bool) {
	all, ambiguous := core.PairMates(results[i], results[i+1], len(reads[i]), len(reads[i+1]), opts)
	kept := all[:0]
	for _, pl := range all {
		if _, _, ok := r.ix.ResolveSpan(pl.Pos, pl.Insert); ok {
			kept = append(kept, pl)
		} else {
			r.dropped++
		}
	}
	for _, m := range results[i : i+2] {
		if m.Mapped() {
			r.mapped++
		}
	}
	if len(kept) > 0 {
		r.concordant++
	}
	if ambiguous {
		r.ambiguous++
	}
	return kept, ambiguous
}

// pairTSV renders one batch of pairs as TSV rows: whether a pair is
// concordant or ambiguous, its placement count, and where its best placement
// starts (contig-relative on a multi-record reference) and how long it is.
func (r *Rows) pairTSV(off int, ids []string, reads []dna.Seq, results []core.MapResult, opts core.PairOptions) error {
	r.header(off, "pair\tconcordant\tambiguous\tplacements\tbest_pos\tbest_insert\n")
	for i := 0; i < len(results); i += 2 {
		kept, ambiguous := r.placePair(reads, results, i, opts)
		r.str("pair", sanitizeID(ids[i]))
		r.flag("concordant", len(kept) > 0)
		r.flag("ambiguous", ambiguous)
		r.num("placements", len(kept))
		if len(kept) == 0 {
			r.str("best_pos", "-")
			r.str("best_insert", "-")
		} else {
			r.ps = append(r.ps[:0], kept[0].Pos)
			r.positions("best_pos", r.ps, kept[0].Insert)
			r.num("best_insert", kept[0].Insert)
		}
		r.end()
	}
	return nil
}

// pairSAM renders one batch of pairs as SAM: a pair's best placement as two
// properly paired records, the leftmost mate forward and the rightmost
// reverse, or two unmapped records when it has none.
func (r *Rows) pairSAM(off int, ids []string, reads []dna.Seq, results []core.MapResult, opts core.PairOptions) error {
	if err := r.samWriter(); err != nil {
		return err
	}
	mateFlags := [2]uint16{sam.FlagFirstInPair, sam.FlagSecondInPair}
	for i := 0; i < len(results); i += 2 {
		kept, _ := r.placePair(reads, results, i, opts)
		name, mates := samQName(ids[i], (off+i)/2), reads[i:i+2]
		if len(kept) == 0 {
			for m, read := range mates {
				if err := r.sw.Write(sam.Record{QName: name, Seq: read.String(),
					Flag: sam.FlagPaired | sam.FlagUnmapped | sam.FlagMateUnmapped | mateFlags[m]}); err != nil {
					return err
				}
			}
			continue
		}
		// Which read is the left mate follows the placement's orientation.
		pl, left, right := kept[0], 0, 1
		if !pl.R1Forward {
			left, right = 1, 0
		}
		rname, leftOff, _ := r.ix.ResolveSpan(pl.Pos, pl.Insert)
		rightOff := leftOff + pl.Insert - len(mates[right])
		proper := sam.FlagPaired | sam.FlagProperPair
		for _, rec := range [2]sam.Record{{
			QName: name, RName: rname, Pos: leftOff + 1, MapQ: 60,
			Flag:  proper | mateFlags[left] | sam.FlagMateReverse,
			CIGAR: strconv.Itoa(len(mates[left])) + "M", Seq: mates[left].String(),
			RNext: "=", PNext: rightOff + 1, TLen: pl.Insert,
		}, {
			QName: name, RName: rname, Pos: rightOff + 1, MapQ: 60,
			Flag:  proper | mateFlags[right] | sam.FlagReverse,
			CIGAR: strconv.Itoa(len(mates[right])) + "M", Seq: mates[right].ReverseComplement().String(),
			RNext: "=", PNext: leftOff + 1, TLen: -pl.Insert,
		}} {
			if err := r.sw.Write(rec); err != nil {
				return err
			}
		}
	}
	return r.sw.Flush()
}
