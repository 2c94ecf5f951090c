package fastx

import (
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"testing"
)

func TestReadFasta(t *testing.T) {
	in := ">seq1 first sequence\nACGT\nACGT\n>seq2\nTTTT\n"
	recs, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].ID != "seq1" || recs[0].Desc != "first sequence" {
		t.Errorf("record 0 header = %q/%q", recs[0].ID, recs[0].Desc)
	}
	if string(recs[0].Seq) != "ACGTACGT" {
		t.Errorf("record 0 seq = %q, want multi-line join", recs[0].Seq)
	}
	if recs[0].Qual != nil {
		t.Error("FASTA record should have nil qualities")
	}
	if recs[1].ID != "seq2" || string(recs[1].Seq) != "TTTT" {
		t.Errorf("record 1 = %q %q", recs[1].ID, recs[1].Seq)
	}
}

func TestReadFastaNoTrailingNewline(t *testing.T) {
	recs, err := ReadAll(strings.NewReader(">a\nACG"))
	if err != nil || len(recs) != 1 || string(recs[0].Seq) != "ACG" {
		t.Fatalf("recs=%v err=%v", recs, err)
	}
}

func TestReadFastaCRLF(t *testing.T) {
	recs, err := ReadAll(strings.NewReader(">a desc\r\nACGT\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if string(recs[0].Seq) != "ACGT" || recs[0].Desc != "desc" {
		t.Errorf("CRLF handling broken: %q %q", recs[0].Seq, recs[0].Desc)
	}
}

func TestReadFastq(t *testing.T) {
	in := "@read1 lane1\nACGT\n+\nIIII\n@read2\nGG\n+read2\nJJ\n"
	recs, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].ID != "read1" || string(recs[0].Seq) != "ACGT" || string(recs[0].Qual) != "IIII" {
		t.Errorf("record 0 = %+v", recs[0])
	}
	if recs[1].ID != "read2" || string(recs[1].Qual) != "JJ" {
		t.Errorf("record 1 = %+v", recs[1])
	}
}

func TestReadEmptyInput(t *testing.T) {
	recs, err := ReadAll(strings.NewReader(""))
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty input: recs=%v err=%v", recs, err)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"unknown format":       "XACGT\n",
		"fasta empty header":   ">\nACGT\n",
		"fasta no sequence":    ">a\n>b\nAC\n",
		"fastq missing plus":   "@a\nACGT\nIIII\n@b\n",
		"fastq qual mismatch":  "@a\nACGT\n+\nII\n",
		"fastq truncated":      "@a\nACGT\n+\n",
		"fastq truncated head": "@a\n",
		"fastq empty header":   "@\nAC\n+\nII\n",
	}
	for name, in := range cases {
		if _, err := ReadAll(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error for %q", name, in)
		}
	}
}

func TestGzipAutoDetect(t *testing.T) {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	io.WriteString(gz, ">g\nACGTACGT\n")
	gz.Close()
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Seq) != "ACGTACGT" {
		t.Fatalf("gzip round trip failed: %v", recs)
	}
}

func TestCorruptGzip(t *testing.T) {
	if _, err := ReadAll(bytes.NewReader([]byte{0x1f, 0x8b, 0xff, 0x00, 0x01})); err == nil {
		t.Error("corrupt gzip accepted")
	}
}

func TestWriteFastaRoundTrip(t *testing.T) {
	recs := []*Record{
		{ID: "a", Desc: "hello", Seq: bytes.Repeat([]byte("ACGT"), 40)},
		{ID: "b", Seq: []byte("TT")},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, FASTA, false)
	w.Width = 60
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Lines must be wrapped.
	for _, line := range strings.Split(buf.String(), "\n") {
		if len(line) > 60+1 {
			t.Errorf("line longer than width: %q", line)
		}
	}
	back, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || string(back[0].Seq) != string(recs[0].Seq) || back[0].Desc != "hello" {
		t.Error("FASTA write/read round trip mismatch")
	}
}

func TestWriteFastqRoundTrip(t *testing.T) {
	recs := []*Record{
		{ID: "r1", Seq: []byte("ACGT"), Qual: []byte("!!II")},
		{ID: "r2", Seq: []byte("GG")}, // qualities synthesised
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, FASTQ, false)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	back, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || string(back[0].Qual) != "!!II" || string(back[1].Qual) != "II" {
		t.Errorf("FASTQ round trip mismatch: %+v", back)
	}
}

func TestWriteGzipRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, FASTQ, true)
	if err := w.Write(&Record{ID: "x", Seq: []byte("ACGT"), Qual: []byte("IIII")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 2 || buf.Bytes()[0] != 0x1f || buf.Bytes()[1] != 0x8b {
		t.Fatal("output is not gzipped")
	}
	back, err := ReadAll(&buf)
	if err != nil || len(back) != 1 || back[0].ID != "x" {
		t.Fatalf("gzip FASTQ round trip failed: %v %v", back, err)
	}
}

func TestWriteInvalidRecords(t *testing.T) {
	w := NewWriter(io.Discard, FASTQ, false)
	if err := w.Write(&Record{Seq: []byte("AC")}); err == nil {
		t.Error("accepted empty ID")
	}
	if err := w.Write(&Record{ID: "a", Seq: []byte("AC"), Qual: []byte("I")}); err == nil {
		t.Error("accepted mismatched qualities")
	}
}

func TestFormatDetection(t *testing.T) {
	r, err := NewReader(strings.NewReader(">x\nA\n"))
	if err != nil || r.Format() != FASTA {
		t.Errorf("FASTA not detected: %v %v", r.Format(), err)
	}
	r, err = NewReader(strings.NewReader("@x\nA\n+\nI\n"))
	if err != nil || r.Format() != FASTQ {
		t.Errorf("FASTQ not detected: %v %v", r.Format(), err)
	}
}

func TestStreamingRead(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 1000; i++ {
		sb.WriteString("@r\nACGTACGT\n+\nIIIIIIII\n")
	}
	rd, err := NewReader(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		_, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		count++
	}
	if count != 1000 {
		t.Errorf("streamed %d records, want 1000", count)
	}
}

// Format returns the detected format; meaningless for empty input.
func (r *Reader) Format() Format { return r.format }
