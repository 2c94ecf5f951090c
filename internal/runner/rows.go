package runner

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/fmindex"
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
	// Row, when non-nil, receives each TSV or mem row's cells right after the
	// row is rendered: a served job builds its NDJSON line from them, so the
	// two representations are field-for-field identical.
	Row func(c *Cells)

	text bytes.Buffer
	// sw is the SAM formats' one writer for the run, so the header lands in
	// the first batch and every later batch renders bare records.
	sw      *sam.Writer
	mapped  int
	dropped int
	// concordant and ambiguous count the pairs of a pair run.
	concordant, ambiguous int

	// Row-building scratch: the cells of the row in hand, its position cells,
	// the ordered copy of a multi-position strand and a k-mismatch row's
	// located positions.
	cells        Cells
	fw, rc, best []byte
	sorted, ps   []int32
}

// Cells are one row's values as Rows renders them. Which fields are set
// follows the format.
type Cells struct {
	// ID is the row's read name: TSV-safe, or the SAM QNAME.
	ID     string
	Mapped bool
	// Exact TSV: each strand's occurrence count and positions cell.
	FwCount, RcCount int
	Fw, Rc           []byte
	// k-mismatch TSV: the best stratum, the occurrences of every reported
	// stratum, and where the best one occurs.
	BestMismatches, Occurrences int
	Best                        []byte
	// Seed-and-extend SAM: the record and the result it renders.
	Rec sam.Record
	Mem *core.MemResult
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

// SanitizeID makes a read ID safe to embed in a TSV row.
func SanitizeID(id string) string { return idSanitizer.Replace(id) }

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

// row counts and hands on the cells of the row just rendered.
func (r *Rows) row() {
	if r.cells.Mapped {
		r.mapped++
	}
	if r.Row != nil {
		r.Row(&r.cells)
	}
}

// exact renders one exact-matching batch, whose first read is the run's
// off-th.
func (r *Rows) exact(off int, ids []string, reads []dna.Seq, results []core.MapResult) error {
	tsv := r.text.AvailableBuffer()
	if off == 0 {
		tsv = append(tsv, "read\tmapped\tfw_count\tfw_positions\trc_count\trc_positions\n"...)
	}
	for i, res := range results {
		span := len(reads[i])
		r.fw = r.appendPositions(r.fw[:0], res.ForwardPositions, span)
		r.rc = r.appendPositions(r.rc[:0], res.ReversePositions, span)
		c := Cells{ID: SanitizeID(ids[i]), Mapped: res.Mapped(),
			FwCount: res.Forward.Count(), Fw: r.fw, RcCount: res.Reverse.Count(), Rc: r.rc}
		tsv = append(append(tsv, c.ID...), '\t')
		tsv = append(strconv.AppendBool(tsv, c.Mapped), '\t')
		tsv = append(strconv.AppendInt(tsv, int64(c.FwCount), 10), '\t')
		tsv = append(append(tsv, c.Fw...), '\t')
		tsv = append(strconv.AppendInt(tsv, int64(c.RcCount), 10), '\t')
		tsv = append(append(tsv, c.Rc...), '\n')
		r.cells = c
		r.row()
	}
	r.text.Write(tsv)
	return nil
}

// approx renders one mismatch-budget batch. best_positions is where the best
// stratum occurs: the exact hits when there are any, else the rescue's lowest
// mismatch count; "-" when locate is off.
func (r *Rows) approx(off int, ids []string, reads []dna.Seq, results []core.ApproxResult, locate bool) error {
	tsv := r.text.AvailableBuffer()
	if off == 0 {
		tsv = append(tsv, "read\tmapped\tbest_mismatches\toccurrences\tbest_positions\n"...)
	}
	for i, res := range results {
		c := Cells{ID: SanitizeID(ids[i]), Mapped: res.Mapped(),
			BestMismatches: res.BestMismatches(), Occurrences: res.Occurrences()}
		r.ps = r.ps[:0]
		if locate {
			var err error
			if r.ps, err = r.locateBest(r.ps, res, c.BestMismatches); err != nil {
				return err
			}
		}
		r.best = r.appendPositions(r.best[:0], r.ps, len(reads[i]))
		c.Best = r.best
		tsv = append(append(tsv, c.ID...), '\t')
		tsv = append(strconv.AppendBool(tsv, c.Mapped), '\t')
		tsv = append(strconv.AppendInt(tsv, int64(c.BestMismatches), 10), '\t')
		tsv = append(strconv.AppendInt(tsv, int64(c.Occurrences), 10), '\t')
		tsv = append(append(tsv, c.Best...), '\n')
		r.cells = c
		r.row()
	}
	r.text.Write(tsv)
	return nil
}

// locateBest appends the positions of res's best stratum to ps.
func (r *Rows) locateBest(ps []int32, res core.ApproxResult, best int) ([]int32, error) {
	var err error
	for _, rng := range [2]fmindex.Range{res.Exact.Forward, res.Exact.Reverse} {
		if ps, err = r.ix.FM().LocateAppend(ps, rng); err != nil {
			return ps, err
		}
	}
	for _, set := range [2][]fmindex.ApproxMatch{res.Forward, res.Reverse} {
		for _, m := range set {
			if m.Mismatches != best {
				continue
			}
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

func (r *Rows) memRecord(rec sam.Record, res *core.MemResult) error {
	r.cells = Cells{ID: rec.QName, Mapped: !rec.Unmapped(), Rec: rec, Mem: res}
	r.row()
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
				rname, pos, ok := r.resolve(p, len(read))
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

// resolve places a hit of span bases on its reference record.
func (r *Rows) resolve(p int32, span int) (name string, off int, ok bool) {
	if r.contigs == nil {
		return "ref", int(p), p >= 0 && int(p)+span <= r.ix.RefLength()
	}
	c, off, ok := r.contigs.Resolve(int(p), span)
	return c.Name, off, ok
}

// placePair pairs the mates at i and i+1 and counts the pair. It returns the
// placements whose fragment lies inside one reference record, best first;
// the others are dropped.
func (r *Rows) placePair(reads []dna.Seq, results []core.MapResult, i int, opts core.PairOptions) ([]core.PairPlacement, bool) {
	all, ambiguous := core.PairMates(results[i], results[i+1], len(reads[i]), len(reads[i+1]), opts)
	kept := all[:0]
	for _, pl := range all {
		if _, _, ok := r.resolve(pl.Pos, pl.Insert); ok {
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
	tsv := r.text.AvailableBuffer()
	if off == 0 {
		tsv = append(tsv, "pair\tconcordant\tambiguous\tplacements\tbest_pos\tbest_insert\n"...)
	}
	for i := 0; i < len(results); i += 2 {
		kept, ambiguous := r.placePair(reads, results, i, opts)
		tsv = append(append(tsv, SanitizeID(ids[i])...), '\t')
		tsv = append(strconv.AppendBool(tsv, len(kept) > 0), '\t')
		tsv = append(strconv.AppendBool(tsv, ambiguous), '\t')
		tsv = append(strconv.AppendInt(tsv, int64(len(kept)), 10), '\t')
		if len(kept) == 0 {
			tsv = append(tsv, "-\t-\n"...)
			continue
		}
		r.ps = append(r.ps[:0], kept[0].Pos)
		tsv = append(r.appendPositions(tsv, r.ps, kept[0].Insert), '\t')
		tsv = append(strconv.AppendInt(tsv, int64(kept[0].Insert), 10), '\n')
	}
	r.text.Write(tsv)
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
		rname, leftOff, _ := r.resolve(pl.Pos, pl.Insert)
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
