package qc

import (
	"fmt"
	"io"
	"sort"

	"bwaver/internal/dna"
	"bwaver/internal/fastx"
)

// Batch is what one Source.Next hands over: the reads that survived the gate,
// in the order they are to be mapped, and the reject rows found while filling
// it. Nothing of a batch stays behind in the source.
type Batch struct {
	IDs     []string
	Seqs    []dna.Seq
	Rejects []Reject
}

// Source is the one way reads enter the mapper: a FASTA/FASTQ stream (plain
// or gzipped) decoded strictly or tolerantly as the policy asks, every
// decoder event passed through the policy's gate, the survivors handed out a
// batch at a time. The one-shot Ingest and internal/runner, the batch loop of
// every `bwaver map`/`mem` run and every served job, pull from it, so memory
// follows the batch size, not the input.
//
// A batch is what survives of the next batchSize decoder events, so three
// things are scoped to it rather than to the stream: QualitySort orders each
// batch, the phred offset is detected on the first batch that carries
// qualities, and batch lengths follow the survivors. The zero policy rejects
// nothing and every batch but the last holds exactly batchSize reads.
type Source struct {
	rd     *fastx.Reader
	policy Policy
	size   int
	// recs are the decoder outcomes not yet gated, in stream order: one batch
	// while Next fills it, between batches at most a mate held back for its
	// pair. A nil entry is a malformed record, whose error waits in errs.
	// Keeping both in one ordered stream is what makes paired-mate accounting
	// exact — pairing is positional, so a malformed R1 must still consume its
	// slot and doom its R2.
	recs   []*fastx.Record
	errs   []*fastx.RecordError
	next   int // index of the next attempted record
	offset int // resolved phred offset; 0 until known
	// report and rejects account for a record when its batch is gated, so the
	// report always balances: attempted == passed + malformed + rejected.
	report  Report
	rejects []Reject
	// ees are the QualitySort keys of the batch being gated, beside its reads.
	ees []float64
	// err is what Next keeps returning once the stream has ended or failed.
	err error
}

// NewSource validates the policy and opens the stream. batchSize <= 0 makes
// the whole stream one batch.
func NewSource(r io.Reader, p Policy, batchSize int) (*Source, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !p.Active() {
		// Pairing only decides what a rejection takes with it. A policy that
		// rejects nothing has no mates to keep in step, and the odd trailing
		// read of an interleaved file maps single-end as it always has.
		p.Paired = false
	}
	rd, err := fastx.NewReader(r)
	if err != nil {
		return nil, err
	}
	rd.SetTolerant(p.Tolerant)
	s := &Source{rd: rd, policy: p, size: batchSize, offset: p.PhredOffset}
	s.report.Rejected = make(map[string]int)
	return s, nil
}

// Next decodes and gates one batch. A batch may hold reject rows and no
// reads; the end of the stream is io.EOF with an empty batch, and stays so.
// A decode error (any malformed record under a strict policy, a broken stream
// under either) comes back alone: the records fed since the last batch are
// dropped uncounted, so Report still balances over what was handed out.
func (s *Source) Next() (Batch, error) {
	if s.err != nil {
		return Batch{}, s.err
	}
	for eof := false; !eof; {
		for fed := 0; !eof && (s.size <= 0 || fed < s.size); fed++ {
			rec, err := s.rd.Read()
			// The reader returns its RecordError bare; errors.As would cost an
			// allocation per record here.
			switch re, _ := err.(*fastx.RecordError); {
			case err == nil:
				s.recs = append(s.recs, rec)
				s.next++
			case re != nil && s.policy.Tolerant:
				s.recs, s.errs = append(s.recs, nil), append(s.errs, re)
				s.next++
			case err == io.EOF:
				eof = true
			default:
				s.err = err
				return Batch{}, err
			}
		}
		// A paired gate holding back a lone mate can leave nothing to hand over.
		if b := s.gate(eof); len(b.Seqs) > 0 || len(b.Rejects) > 0 {
			if eof {
				s.err = io.EOF
			}
			return b, nil
		}
	}
	s.err = io.EOF
	return Batch{}, io.EOF
}

// gate passes the buffered records through the policy and returns the
// survivors, quality-sorted when the policy asks for it, with the reject rows
// of the rest. With a paired policy a trailing odd record is held back for its
// mate unless final is true (EOF), where it is rejected as an orphan.
func (s *Source) gate(final bool) Batch {
	n := len(s.recs)
	if s.policy.Paired && !final && n%2 == 1 {
		n--
	}
	recs, index := s.recs[:n], s.next-len(s.recs)

	// Malformed rows lead their batch's gate rows.
	s.report.Attempted += n
	malformed := 0
	for i, rec := range recs {
		if rec == nil {
			re := s.errs[malformed]
			malformed++
			s.rejects = append(s.rejects, Reject{Index: index + i, ID: re.RecordID, Reason: ReasonMalformed, Detail: re.Detail})
		}
	}
	s.report.Malformed += malformed
	s.errs = s.errs[:copy(s.errs, s.errs[malformed:])]
	s.resolveOffset(recs)

	b := Batch{IDs: make([]string, 0, n), Seqs: make([]dna.Seq, 0, n)}
	s.ees = s.ees[:0]
	stride := 1
	if s.policy.Paired {
		stride = 2
	}
	i := 0
	for ; i+stride <= n; i += stride {
		s.gateUnit(&b, recs[i:i+stride], index+i)
	}
	if i < n && recs[i] != nil {
		// Orphan at EOF: positional pairing has no mate for it.
		s.reject(index+i, recs[i], reasonMateRejected, "no mate: odd trailing read")
	}
	if s.policy.QualitySort {
		// Stable, and before the backend split, so CPU and FPGA map the same
		// order and remain bit-identical; mates share their key and stay adjacent.
		sort.Stable(byExpectedErrors{&b, s.ees})
	}
	s.report.Passed += len(b.Seqs)
	// The buffer serves every batch: a held-back mate moves to the front and
	// the gated records are let go.
	held := copy(s.recs, s.recs[n:])
	clear(s.recs[held:])
	s.recs = s.recs[:held]
	b.Rejects, s.rejects = s.rejects, nil
	return b
}

// gateUnit evaluates the reads that stand or fall together — an interleaved
// mate pair under a paired policy, otherwise one read: all survive or all are
// rejected (the clean mate of a failed read as mate_rejected), so downstream
// pairing never phase-shifts. index is the unit's first record's.
func (s *Source) gateUnit(b *Batch, unit []*fastx.Record, index int) {
	var seqs [2]dna.Seq
	var ees [2]float64
	var reasons, details [2]string
	pass := true
	for i, rec := range unit {
		if rec == nil {
			pass = false
			continue
		}
		seqs[i], ees[i], reasons[i], details[i] = s.gateRead(rec)
		pass = pass && reasons[i] == ""
	}
	for i, rec := range unit {
		switch {
		case pass:
			b.IDs, b.Seqs = append(b.IDs, rec.ID), append(b.Seqs, seqs[i])
			if s.policy.QualitySort {
				// Mates sort as one block, keyed by the pair's expected errors.
				s.ees = append(s.ees, ees[0]+ees[1])
			}
		case rec == nil: // malformed: its row was written by gate
		case reasons[i] == "":
			s.reject(index+i, rec, reasonMateRejected, "mate failed QC")
		default:
			s.reject(index+i, rec, reasons[i], details[i])
		}
	}
}

// gateRead trims and measures one record and returns its sanitized sequence
// and expected errors; reason is "" when it passes. Only MaxEE and QualitySort
// read the expected errors (a math.Pow per quality byte), so only they pay for
// them.
func (s *Source) gateRead(rec *fastx.Record) (codes dna.Seq, ee float64, reason, detail string) {
	seq, qual := rec.Seq, rec.Qual
	if s.policy.TrimQual > 0 && len(qual) == len(seq) && s.offset > 0 {
		keep := trim3(qual, s.offset, s.policy.TrimQual)
		s.report.TrimmedBases += len(seq) - keep
		seq, qual = seq[:keep], qual[:keep]
	}
	if s.policy.MaxEE == 0 && !s.policy.QualitySort {
		qual = nil
	}
	m := measure(seq, qual, s.offset)
	if s.policy.MinLen > 0 && m.Length < s.policy.MinLen {
		return nil, 0, reasonTooShort, fmt.Sprintf("%d bases after trim, need %d", m.Length, s.policy.MinLen)
	}
	if s.policy.MaxN > 0 && m.NCount > s.policy.MaxN {
		return nil, 0, reasonTooManyN, fmt.Sprintf("%d ambiguous bases, max %d", m.NCount, s.policy.MaxN)
	}
	if s.policy.MaxEE > 0 && len(qual) > 0 && m.MaxEE > s.policy.MaxEE {
		return nil, 0, reasonMaxEE, fmt.Sprintf("%.2f expected errors, max %.2f", m.MaxEE, s.policy.MaxEE)
	}
	codes, _ = dna.Sanitize(seq, dna.A)
	return codes, m.MaxEE, "", ""
}

func (s *Source) reject(index int, rec *fastx.Record, reason, detail string) {
	s.report.Rejected[reason]++
	s.rejects = append(s.rejects, Reject{Index: index, ID: rec.ID, Reason: reason, Detail: detail})
}

// resolveOffset fixes the phred encoding on first use. Detection scans the
// batch in hand; once resolved the offset never changes, so every read in
// the job is measured against the same encoding.
func (s *Source) resolveOffset(recs []*fastx.Record) {
	if s.offset != 0 {
		return
	}
	var ev offsetEvidence
	sawQual := false
	for _, rec := range recs {
		if rec != nil && len(rec.Qual) > 0 {
			sawQual = true
			if ev.add(rec.Qual); ev.low {
				break
			}
		}
	}
	if sawQual { // else FASTA so far; stay undetected
		s.offset = ev.offset()
	}
}

// byExpectedErrors sorts a batch's reads by their QualitySort keys.
type byExpectedErrors struct {
	b  *Batch
	ee []float64
}

func (s byExpectedErrors) Len() int           { return len(s.ee) }
func (s byExpectedErrors) Less(i, k int) bool { return s.ee[i] < s.ee[k] }
func (s byExpectedErrors) Swap(i, k int) {
	s.b.IDs[i], s.b.IDs[k] = s.b.IDs[k], s.b.IDs[i]
	s.b.Seqs[i], s.b.Seqs[k] = s.b.Seqs[k], s.b.Seqs[i]
	s.ee[i], s.ee[k] = s.ee[k], s.ee[i]
}

// Report returns the accounting of every batch handed out so far; it is final
// once Next has returned io.EOF.
func (s *Source) Report() Report {
	r := s.report
	r.PhredOffset = s.offset
	return r
}

// Close releases the decoder (the gzip state of a compressed stream).
func (s *Source) Close() error { return s.rd.Close() }
