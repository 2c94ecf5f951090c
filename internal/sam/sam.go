// Package sam writes Sequence Alignment/Map (SAM) records, the interchange
// format downstream of every read mapper. BWaveR's CLI uses it to emit
// mapping results that genomics toolchains (samtools-style) can consume;
// only the subset needed for exact/k-mismatch single-end mappings is
// implemented.
package sam

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Flag bits (SAM spec §1.4).
const (
	FlagPaired       uint16 = 0x1
	FlagProperPair   uint16 = 0x2
	FlagUnmapped     uint16 = 0x4
	FlagMateUnmapped uint16 = 0x8
	FlagReverse      uint16 = 0x10
	FlagMateReverse  uint16 = 0x20
	FlagFirstInPair  uint16 = 0x40
	FlagSecondInPair uint16 = 0x80
	FlagSecondary    uint16 = 0x100
)

// RefSeq describes one @SQ header line.
type RefSeq struct {
	Name   string
	Length int
}

// Record is one alignment line.
type Record struct {
	QName string
	Flag  uint16
	// RName is the reference (contig) name, "*" or empty when unmapped.
	RName string
	// Pos is the 1-based leftmost mapping position, 0 when unmapped.
	Pos  int
	MapQ uint8
	// CIGAR is the alignment string, "*" or empty when unmapped.
	CIGAR string
	// Seq is the read sequence as aligned (reverse-complemented for
	// reverse-strand records, per the spec).
	Seq string
	// Qual is the quality string; "*" or empty substitutes the placeholder.
	Qual string
	// RNext names the mate's reference for paired records: "=" for the
	// same reference, a contig name, or empty/"*" for none.
	RNext string
	// PNext is the mate's 1-based position, 0 for none.
	PNext int
	// TLen is the signed observed template length, 0 for none.
	TLen int
	// Tags holds optional fields, already formatted ("NM:i:1").
	Tags []string
}

// Unmapped reports the unmapped flag.
func (r Record) Unmapped() bool { return r.Flag&FlagUnmapped != 0 }

// Writer emits a SAM header followed by alignment records.
type Writer struct {
	w        *bufio.Writer
	refs     map[string]int // name -> length
	wroteAny bool
}

// NewWriter writes the @HD/@SQ/@PG header immediately and returns a Writer
// for the alignment section.
func NewWriter(w io.Writer, refs []RefSeq) (*Writer, error) {
	out := &Writer{w: bufio.NewWriter(w), refs: make(map[string]int, len(refs))}
	fmt.Fprintf(out.w, "@HD\tVN:1.6\tSO:unknown\n")
	for _, r := range refs {
		if r.Name == "" || strings.ContainsAny(r.Name, " \t\n") {
			return nil, fmt.Errorf("sam: invalid reference name %q", r.Name)
		}
		if r.Length <= 0 {
			return nil, fmt.Errorf("sam: reference %q has non-positive length %d", r.Name, r.Length)
		}
		if _, dup := out.refs[r.Name]; dup {
			return nil, fmt.Errorf("sam: duplicate reference %q", r.Name)
		}
		out.refs[r.Name] = r.Length
		fmt.Fprintf(out.w, "@SQ\tSN:%s\tLN:%d\n", r.Name, r.Length)
	}
	fmt.Fprintf(out.w, "@PG\tID:bwaver\tPN:bwaver\n")
	return out, nil
}

// Write validates and emits one record.
func (w *Writer) Write(rec Record) error {
	if rec.QName == "" || strings.ContainsAny(rec.QName, " \t\n") {
		return fmt.Errorf("sam: invalid query name %q", rec.QName)
	}
	if rec.Pos < 0 {
		return fmt.Errorf("sam: record %q has negative position %d", rec.QName, rec.Pos)
	}
	if rec.PNext < 0 {
		return fmt.Errorf("sam: record %q has negative mate position %d", rec.QName, rec.PNext)
	}
	rname, pos, cigar := rec.RName, rec.Pos, rec.CIGAR
	if rec.Unmapped() {
		rname, pos, cigar = "*", 0, "*"
	} else {
		length, ok := w.refs[rname]
		if !ok {
			return fmt.Errorf("sam: record %q maps to unknown reference %q", rec.QName, rname)
		}
		if pos < 1 || pos > length {
			return fmt.Errorf("sam: record %q position %d outside %q [1,%d]", rec.QName, pos, rname, length)
		}
		if cigar == "" {
			return fmt.Errorf("sam: mapped record %q lacks a CIGAR", rec.QName)
		}
	}
	seq := rec.Seq
	if seq == "" {
		seq = "*"
	}
	qual := rec.Qual
	if qual == "" {
		qual = "*"
	}
	if seq != "*" && qual != "*" && len(seq) != len(qual) {
		return fmt.Errorf("sam: record %q: %d quality bytes for %d bases", rec.QName, len(qual), len(seq))
	}
	if seq == "*" && qual != "*" {
		return fmt.Errorf("sam: record %q has qualities but no sequence", rec.QName)
	}
	rnext := rec.RNext
	if rnext == "" {
		rnext = "*"
	}
	if rnext != "*" && rnext != "=" {
		if _, ok := w.refs[rnext]; !ok {
			return fmt.Errorf("sam: record %q: mate reference %q unknown", rec.QName, rnext)
		}
	}
	fmt.Fprintf(w.w, "%s\t%d\t%s\t%d\t%d\t%s\t%s\t%d\t%d\t%s\t%s",
		rec.QName, rec.Flag, rname, pos, rec.MapQ, cigar, rnext, rec.PNext, rec.TLen, seq, qual)
	for _, tag := range rec.Tags {
		fmt.Fprintf(w.w, "\t%s", tag)
	}
	w.w.WriteByte('\n')
	w.wroteAny = true
	return nil
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }
