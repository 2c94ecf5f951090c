// Package fastx reads and writes FASTA and FASTQ files, the interchange
// formats BWaveR's web application accepts (paper §III-D: "upload the
// reference and query sequences as FASTA and FASTQ files respectively, both
// in uncompressed or gzipped formats").
//
// The reader auto-detects gzip compression from the magic bytes and the
// record format from the first header character, so callers can hand it any
// of the four combinations without configuration.
package fastx

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Format identifies a sequence file format.
type Format int

const (
	// FASTA records start with '>' and carry no qualities.
	FASTA Format = iota
	// FASTQ records start with '@' and carry per-base qualities.
	FASTQ
)

// String implements fmt.Stringer.
func (f Format) String() string {
	if f == FASTQ {
		return "FASTQ"
	}
	return "FASTA"
}

// Reason codes carried by RecordError. They are a fixed enum so downstream
// accounting (journal counters, /metrics labels) has bounded cardinality no
// matter what bytes arrive on the wire.
const (
	// ReasonBadHeader: the line where a record header was expected does not
	// start with the format's header byte.
	ReasonBadHeader = "bad_header"
	// ReasonEmptyID: a header line with no ID token.
	ReasonEmptyID = "empty_id"
	// ReasonTruncated: the stream ended inside a record.
	ReasonTruncated = "truncated"
	// ReasonBadSeparator: a FASTQ record without a '+' separator line.
	ReasonBadSeparator = "bad_separator"
	// ReasonQualMismatch: quality and sequence lengths differ.
	ReasonQualMismatch = "qual_mismatch"
	// ReasonBlankLine: a blank line where a FASTQ header was expected
	// (other than a trailing run of blank lines at EOF, which is legal).
	ReasonBlankLine = "blank_line"
	// ReasonBadSequence: malformed FASTA sequence data ('>' mid-line, or a
	// record with no sequence at all).
	ReasonBadSequence = "bad_sequence"
)

// RecordError describes one malformed record. In strict mode it aborts the
// parse; in tolerant mode (SetTolerant) the reader resynchronizes to the
// next plausible record header and returns the RecordError so the caller
// can account for the loss and keep reading.
type RecordError struct {
	// Line is the 1-based line number of the offending line.
	Line int
	// RecordID is the record's ID when the header parsed, "" otherwise.
	RecordID string
	// Reason is one of the Reason* codes.
	Reason string
	// Detail is the human-readable description.
	Detail string
}

// Error implements error. Details that name only the record gain the line:
// deep in a large file it is what finds the record.
func (e *RecordError) Error() string {
	if strings.HasPrefix(e.Detail, "line ") {
		return "fastx: " + e.Detail
	}
	return fmt.Sprintf("fastx: line %d: %s", e.Line, e.Detail)
}

// Record is one sequence record.
type Record struct {
	// ID is the first whitespace-delimited token of the header.
	ID string
	// Desc is the remainder of the header line, if any.
	Desc string
	// Seq is the raw sequence bytes (ASCII, case preserved).
	Seq []byte
	// Qual holds FASTQ quality bytes, nil for FASTA records. When present
	// it has the same length as Seq.
	Qual []byte
}

// Reader parses records from a FASTA or FASTQ stream.
type Reader struct {
	br     *bufio.Reader
	format Format
	gz     *gzip.Reader
	line   int
	// pending holds the next FASTA header once the previous record ends.
	pending string
	// pendingLine is the line number pending was read on.
	pendingLine int
	// peeked is the FASTQ lookahead window: lines read ahead of the parse
	// position (for candidate-header validation during resync) but not yet
	// consumed.
	peeked []numberedLine
	// tolerant degrades malformed records to RecordErrors instead of
	// aborting the whole parse.
	tolerant bool
	done     bool
}

// numberedLine pairs a line's text with its 1-based position in the stream.
type numberedLine struct {
	text string
	num  int
}

// NewReader wraps r, transparently decompressing gzip input and detecting
// the record format. An empty input yields a reader whose Read returns
// io.EOF immediately.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic, err := br.Peek(2)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("fastx: %w", err)
	}
	var gz *gzip.Reader
	if len(magic) == 2 && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err = gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("fastx: bad gzip stream: %w", err)
		}
		br = bufio.NewReaderSize(gz, 1<<16)
	}
	first, err := br.Peek(1)
	rd := &Reader{br: br, gz: gz}
	switch {
	case err == io.EOF:
		rd.done = true
	case err != nil:
		return nil, fmt.Errorf("fastx: %w", err)
	case first[0] == '>':
		rd.format = FASTA
	case first[0] == '@':
		rd.format = FASTQ
	default:
		return nil, fmt.Errorf("fastx: unrecognised leading byte %q; want '>' (FASTA) or '@' (FASTQ)", first[0])
	}
	return rd, nil
}

// Format returns the detected format; meaningless for empty input.
func (r *Reader) Format() Format { return r.format }

// SetTolerant switches the reader between strict mode (any malformed record
// aborts the parse; the default, and what reference uploads use) and
// tolerant mode, where a malformed record is skipped: the reader
// resynchronizes to the next plausible record header and Read returns a
// *RecordError describing what was lost. On well-formed input the two modes
// produce identical records.
func (r *Reader) SetTolerant(t bool) { r.tolerant = t }

// Close releases the gzip decompressor if one is active.
func (r *Reader) Close() error {
	if r.gz != nil {
		return r.gz.Close()
	}
	return nil
}

func (r *Reader) readLine() (string, error) {
	line, err := r.br.ReadString('\n')
	if err != nil && err != io.EOF {
		return "", fmt.Errorf("fastx: line %d: %w", r.line+1, err)
	}
	if line == "" && err == io.EOF {
		return "", io.EOF
	}
	r.line++
	return strings.TrimRight(line, "\r\n"), nil
}

// peekLine returns the i-th line (0-based) ahead of the parse position
// without consuming it, reading further into the stream as needed.
func (r *Reader) peekLine(i int) (numberedLine, error) {
	for len(r.peeked) <= i {
		text, err := r.readLine()
		if err != nil {
			return numberedLine{}, err
		}
		r.peeked = append(r.peeked, numberedLine{text: text, num: r.line})
	}
	return r.peeked[i], nil
}

// dropPeeked consumes the first n lines of the lookahead window.
func (r *Reader) dropPeeked(n int) {
	r.peeked = r.peeked[:copy(r.peeked, r.peeked[n:])]
}

// Read returns the next record, or io.EOF when the stream ends.
func (r *Reader) Read() (*Record, error) {
	if r.done {
		return nil, io.EOF
	}
	if r.format == FASTQ {
		return r.readFastq()
	}
	return r.readFasta()
}

func splitHeader(h string) (id, desc string) {
	if i := strings.IndexAny(h, " \t"); i >= 0 {
		return h[:i], strings.TrimSpace(h[i+1:])
	}
	return h, ""
}

// fastaFail reports a malformed FASTA record: strict mode aborts, tolerant
// mode resynchronizes to the next '>' header and returns the RecordError.
func (r *Reader) fastaFail(re *RecordError) (*Record, error) {
	if !r.tolerant {
		return nil, re
	}
	r.resyncFasta()
	return nil, re
}

// resyncFasta scans forward to the next line starting with '>' and parks it
// in r.pending so the next Read starts a fresh record there.
func (r *Reader) resyncFasta() {
	if r.pending != "" {
		return // already positioned at the next header
	}
	for {
		line, err := r.readLine()
		if err != nil {
			return // EOF (or a sticky stream error the next Read reports)
		}
		if strings.HasPrefix(line, ">") {
			r.pending = line
			r.pendingLine = r.line
			return
		}
	}
}

func (r *Reader) readFasta() (*Record, error) {
	header := r.pending
	headerLine := r.pendingLine
	r.pending = ""
	if header == "" {
		line, err := r.readLine()
		if err == io.EOF {
			r.done = true
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}
		header = line
		headerLine = r.line
	}
	if !strings.HasPrefix(header, ">") {
		return r.fastaFail(&RecordError{Line: headerLine, Reason: ReasonBadHeader,
			Detail: fmt.Sprintf("line %d: FASTA header must start with '>', got %q", headerLine, header)})
	}
	rec := &Record{}
	rec.ID, rec.Desc = splitHeader(strings.TrimPrefix(header, ">"))
	if rec.ID == "" {
		return r.fastaFail(&RecordError{Line: headerLine, Reason: ReasonEmptyID,
			Detail: fmt.Sprintf("line %d: empty FASTA header", headerLine)})
	}
	var seq bytes.Buffer
	for {
		line, err := r.readLine()
		if err == io.EOF {
			r.done = true
			break
		}
		if err != nil {
			return nil, err
		}
		if strings.HasPrefix(line, ">") {
			r.pending = line
			r.pendingLine = r.line
			break
		}
		if strings.ContainsRune(line, '>') {
			return r.fastaFail(&RecordError{Line: r.line, RecordID: rec.ID, Reason: ReasonBadSequence,
				Detail: fmt.Sprintf("line %d: '>' inside sequence data of record %q", r.line, rec.ID)})
		}
		seq.WriteString(strings.TrimSpace(line))
	}
	if seq.Len() == 0 {
		return r.fastaFail(&RecordError{Line: headerLine, RecordID: rec.ID, Reason: ReasonBadSequence,
			Detail: fmt.Sprintf("record %q has no sequence data", rec.ID)})
	}
	rec.Seq = seq.Bytes()
	return rec, nil
}

// fastqFail reports a malformed FASTQ record: strict mode aborts the parse,
// tolerant mode resynchronizes to the next plausible record header and
// returns the RecordError for per-record accounting. Every failure path has
// consumed at least one line before calling this, so tolerant parsing always
// makes progress.
func (r *Reader) fastqFail(re *RecordError) (*Record, error) {
	if !r.tolerant {
		return nil, re
	}
	r.resyncFastq()
	return nil, re
}

// resyncFastq scans forward for the next line that can start a FASTQ record:
// an '@' line whose line+2 starts with '+'. An '@' alone is not enough —
// quality strings may legitimately begin with '@', so the separator two
// lines ahead is the disambiguator. A candidate too close to EOF for the
// check is accepted as-is and left for the next Read to judge. Everything
// before the candidate is discarded.
func (r *Reader) resyncFastq() {
	for {
		nl, err := r.peekLine(0)
		if err != nil {
			return // EOF (or a sticky stream error the next Read reports)
		}
		if strings.HasPrefix(nl.text, "@") {
			sep, err := r.peekLine(2)
			if err != nil || strings.HasPrefix(sep.text, "+") {
				return
			}
		}
		r.dropPeeked(1)
	}
}

func (r *Reader) readFastq() (*Record, error) {
	header, err := r.peekLine(0)
	if err == io.EOF {
		r.done = true
		return nil, io.EOF
	}
	if err != nil {
		return nil, err
	}
	if header.text == "" {
		// A run of blank lines is legal at EOF (trailing newlines are
		// common); anywhere else it is a malformed region.
		n := 1
		for {
			nl, err := r.peekLine(n)
			if err == io.EOF {
				r.dropPeeked(n)
				r.done = true
				return nil, io.EOF
			}
			if err != nil {
				return nil, err
			}
			if nl.text != "" {
				break
			}
			n++
		}
		r.dropPeeked(n)
		return r.fastqFail(&RecordError{Line: header.num, Reason: ReasonBlankLine,
			Detail: fmt.Sprintf("line %d: blank line inside FASTQ", header.num)})
	}
	if !strings.HasPrefix(header.text, "@") {
		r.dropPeeked(1)
		return r.fastqFail(&RecordError{Line: header.num, Reason: ReasonBadHeader,
			Detail: fmt.Sprintf("line %d: FASTQ header must start with '@', got %q", header.num, header.text)})
	}
	rec := &Record{}
	rec.ID, rec.Desc = splitHeader(strings.TrimPrefix(header.text, "@"))
	if rec.ID == "" {
		r.dropPeeked(1)
		return r.fastqFail(&RecordError{Line: header.num, Reason: ReasonEmptyID,
			Detail: fmt.Sprintf("line %d: empty FASTQ header", header.num)})
	}
	seq, err := r.peekLine(1)
	if err == io.EOF {
		r.dropPeeked(1)
		return r.fastqFail(&RecordError{Line: header.num, RecordID: rec.ID, Reason: ReasonTruncated,
			Detail: fmt.Sprintf("record %q: truncated after header", rec.ID)})
	}
	if err != nil {
		return nil, err
	}
	sep, err := r.peekLine(2)
	if err == io.EOF {
		r.dropPeeked(2)
		return r.fastqFail(&RecordError{Line: header.num, RecordID: rec.ID, Reason: ReasonBadSeparator,
			Detail: fmt.Sprintf("record %q: missing '+' separator line", rec.ID)})
	}
	if err != nil {
		return nil, err
	}
	if !strings.HasPrefix(sep.text, "+") {
		// Drop only the header: the "separator" may in fact be the next
		// record's header (a truncated record), which resync can recover.
		r.dropPeeked(1)
		return r.fastqFail(&RecordError{Line: sep.num, RecordID: rec.ID, Reason: ReasonBadSeparator,
			Detail: fmt.Sprintf("record %q: missing '+' separator line", rec.ID)})
	}
	qual, err := r.peekLine(3)
	if err == io.EOF {
		r.dropPeeked(3)
		return r.fastqFail(&RecordError{Line: header.num, RecordID: rec.ID, Reason: ReasonTruncated,
			Detail: fmt.Sprintf("record %q: truncated before quality line", rec.ID)})
	}
	if err != nil {
		return nil, err
	}
	if len(qual.text) != len(seq.text) {
		r.dropPeeked(1)
		return r.fastqFail(&RecordError{Line: qual.num, RecordID: rec.ID, Reason: ReasonQualMismatch,
			Detail: fmt.Sprintf("record %q: %d quality bytes for %d bases", rec.ID, len(qual.text), len(seq.text))})
	}
	r.dropPeeked(4)
	rec.Seq = []byte(seq.text)
	rec.Qual = []byte(qual.text)
	return rec, nil
}

// ReadAll parses every record in r.
func ReadAll(r io.Reader) ([]*Record, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	var out []*Record
	for {
		rec, err := rd.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// ReadAllTolerant parses every record in r in tolerant mode: malformed
// records are returned as RecordErrors alongside the records that survived,
// and only stream-level failures (I/O, corrupt gzip) abort.
func ReadAllTolerant(r io.Reader) ([]*Record, []*RecordError, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, nil, err
	}
	defer rd.Close()
	rd.SetTolerant(true)
	var out []*Record
	var recErrs []*RecordError
	for {
		rec, err := rd.Read()
		if err == io.EOF {
			return out, recErrs, nil
		}
		var re *RecordError
		if errors.As(err, &re) {
			recErrs = append(recErrs, re)
			continue
		}
		if err != nil {
			return out, recErrs, err
		}
		out = append(out, rec)
	}
}

// Writer emits records in FASTA or FASTQ format, optionally gzipped.
type Writer struct {
	w      *bufio.Writer
	gz     *gzip.Writer
	format Format
	// Width wraps FASTA sequence lines; <= 0 means no wrapping.
	Width int
}

// NewWriter creates a Writer for the given format. If compress is true the
// output is gzipped.
func NewWriter(w io.Writer, format Format, compress bool) *Writer {
	out := &Writer{format: format, Width: 70}
	if compress {
		out.gz = gzip.NewWriter(w)
		out.w = bufio.NewWriter(out.gz)
	} else {
		out.w = bufio.NewWriter(w)
	}
	return out
}

// Write emits one record. FASTA output drops qualities; FASTQ output
// synthesises flat qualities ('I') if the record has none.
func (w *Writer) Write(rec *Record) error {
	if rec.ID == "" {
		return fmt.Errorf("fastx: cannot write record with empty ID")
	}
	header := rec.ID
	if rec.Desc != "" {
		header += " " + rec.Desc
	}
	if w.format == FASTA {
		if _, err := fmt.Fprintf(w.w, ">%s\n", header); err != nil {
			return err
		}
		seq := rec.Seq
		width := w.Width
		if width <= 0 {
			width = len(seq)
		}
		for len(seq) > 0 {
			n := width
			if n > len(seq) {
				n = len(seq)
			}
			if _, err := w.w.Write(seq[:n]); err != nil {
				return err
			}
			if err := w.w.WriteByte('\n'); err != nil {
				return err
			}
			seq = seq[n:]
		}
		return nil
	}
	qual := rec.Qual
	if qual == nil {
		qual = bytes.Repeat([]byte{'I'}, len(rec.Seq))
	}
	if len(qual) != len(rec.Seq) {
		return fmt.Errorf("fastx: record %q: quality/sequence length mismatch", rec.ID)
	}
	_, err := fmt.Fprintf(w.w, "@%s\n%s\n+\n%s\n", header, rec.Seq, qual)
	return err
}

// Close flushes buffers and finishes the gzip stream if active.
func (w *Writer) Close() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if w.gz != nil {
		return w.gz.Close()
	}
	return nil
}
