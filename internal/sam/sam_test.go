package sam

import (
	"bytes"
	"strings"
	"testing"
)

func newTestWriter(t *testing.T) (*Writer, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, []RefSeq{{Name: "chr1", Length: 1000}, {Name: "chr2", Length: 500}})
	if err != nil {
		t.Fatal(err)
	}
	return w, &buf
}

func TestHeader(t *testing.T) {
	w, buf := newTestWriter(t)
	w.Flush()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d header lines, want 4", len(lines))
	}
	if !strings.HasPrefix(lines[0], "@HD\tVN:1.6") {
		t.Errorf("bad @HD: %q", lines[0])
	}
	if lines[1] != "@SQ\tSN:chr1\tLN:1000" || lines[2] != "@SQ\tSN:chr2\tLN:500" {
		t.Errorf("bad @SQ lines: %q %q", lines[1], lines[2])
	}
	if !strings.HasPrefix(lines[3], "@PG\tID:bwaver") {
		t.Errorf("bad @PG: %q", lines[3])
	}
}

func TestHeaderValidation(t *testing.T) {
	var buf bytes.Buffer
	cases := [][]RefSeq{
		{{Name: "", Length: 10}},
		{{Name: "a b", Length: 10}},
		{{Name: "a", Length: 0}},
		{{Name: "a", Length: 10}, {Name: "a", Length: 20}},
	}
	for _, refs := range cases {
		if _, err := NewWriter(&buf, refs); err == nil {
			t.Errorf("NewWriter(%v) accepted invalid refs", refs)
		}
	}
}

func TestWriteMappedRecord(t *testing.T) {
	w, buf := newTestWriter(t)
	err := w.Write(Record{
		QName: "read1", Flag: 0, RName: "chr1", Pos: 42, MapQ: 37,
		CIGAR: "50M", Seq: strings.Repeat("A", 50), Qual: strings.Repeat("I", 50),
		Tags: []string{"NM:i:0", "AS:i:100"},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Flush()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := lines[len(lines)-1]
	fields := strings.Split(last, "\t")
	if len(fields) != 13 {
		t.Fatalf("%d fields, want 13: %q", len(fields), last)
	}
	want := []string{"read1", "0", "chr1", "42", "37", "50M", "*", "0", "0"}
	for i, wv := range want {
		if fields[i] != wv {
			t.Errorf("field %d = %q, want %q", i, fields[i], wv)
		}
	}
	if fields[11] != "NM:i:0" || fields[12] != "AS:i:100" {
		t.Errorf("tags wrong: %v", fields[11:])
	}
}

func TestWriteUnmappedRecord(t *testing.T) {
	w, buf := newTestWriter(t)
	if err := w.Write(Record{QName: "r", Flag: FlagUnmapped, Seq: "ACGT"}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	fields := strings.Split(lines[len(lines)-1], "\t")
	if fields[2] != "*" || fields[3] != "0" || fields[5] != "*" || fields[10] != "*" {
		t.Errorf("unmapped record fields wrong: %v", fields)
	}
}

func TestWriteValidation(t *testing.T) {
	w, _ := newTestWriter(t)
	cases := []Record{
		{QName: "", RName: "chr1", Pos: 1, CIGAR: "1M"},
		{QName: "a b", RName: "chr1", Pos: 1, CIGAR: "1M"},
		{QName: "r", RName: "chrX", Pos: 1, CIGAR: "1M"},
		{QName: "r", RName: "chr1", Pos: 0, CIGAR: "1M"},
		{QName: "r", RName: "chr1", Pos: 1001, CIGAR: "1M"},
		{QName: "r", RName: "chr1", Pos: 5, CIGAR: ""},
		{QName: "r", RName: "chr1", Pos: 5, CIGAR: "4M", Seq: "ACGT", Qual: "II"},
		{QName: "r", RName: "chr1", Pos: -3, CIGAR: "1M"},
		{QName: "r", Flag: FlagUnmapped, Pos: -3}, // negative Pos is invalid even when masked by the unmapped substitution
		{QName: "r", RName: "chr1", Pos: 5, CIGAR: "1M", RNext: "=", PNext: -1},
		{QName: "r", RName: "chr1", Pos: 5, CIGAR: "1M", Qual: "III"}, // qualities without a sequence
	}
	for i, rec := range cases {
		if err := w.Write(rec); err == nil {
			t.Errorf("case %d: Write(%+v) accepted invalid record", i, rec)
		}
	}
}

func TestFlagConstants(t *testing.T) {
	// Spec §1.4 bit values.
	for _, c := range []struct {
		flag uint16
		want uint16
	}{
		{FlagPaired, 0x1},
		{FlagProperPair, 0x2},
		{FlagUnmapped, 0x4},
		{FlagMateUnmapped, 0x8},
		{FlagReverse, 0x10},
		{FlagMateReverse, 0x20},
		{FlagFirstInPair, 0x40},
		{FlagSecondInPair, 0x80},
		{FlagSecondary, 0x100},
	} {
		if c.flag != c.want {
			t.Errorf("flag = %#x, want %#x", c.flag, c.want)
		}
	}
}

func TestFlagHelpers(t *testing.T) {
	if (Record{Flag: FlagUnmapped}).Unmapped() != true {
		t.Error("Unmapped flag not detected")
	}
	if (Record{Flag: FlagReverse}).Unmapped() {
		t.Error("reverse flag misread as unmapped")
	}
}

func TestWritePairedRecord(t *testing.T) {
	w, buf := newTestWriter(t)
	err := w.Write(Record{
		QName: "p1", Flag: FlagPaired | FlagProperPair | FlagFirstInPair | FlagMateReverse,
		RName: "chr1", Pos: 100, MapQ: 60, CIGAR: "50M",
		RNext: "=", PNext: 251, TLen: 201,
		Seq: strings.Repeat("A", 50),
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Flush()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	fields := strings.Split(lines[len(lines)-1], "\t")
	if fields[1] != "99" { // 0x1|0x2|0x20|0x40
		t.Errorf("flag = %s, want 99", fields[1])
	}
	if fields[6] != "=" || fields[7] != "251" || fields[8] != "201" {
		t.Errorf("mate fields = %v", fields[6:9])
	}
}

func TestWriteMateReferenceValidation(t *testing.T) {
	w, _ := newTestWriter(t)
	err := w.Write(Record{
		QName: "p", Flag: FlagPaired, RName: "chr1", Pos: 1, CIGAR: "1M",
		RNext: "chrUnknown", PNext: 5,
	})
	if err == nil {
		t.Error("unknown mate reference accepted")
	}
	// Cross-contig mates are fine when the contig is declared.
	if err := w.Write(Record{
		QName: "p", Flag: FlagPaired, RName: "chr1", Pos: 1, CIGAR: "1M",
		RNext: "chr2", PNext: 5,
	}); err != nil {
		t.Errorf("declared mate reference rejected: %v", err)
	}
}
