package fastx

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// readTolerant drains a tolerant reader, returning surviving records and
// the per-record errors in stream order.
func readTolerant(t *testing.T, in string) ([]*Record, []*RecordError) {
	t.Helper()
	recs, recErrs, err := ReadAllTolerant(strings.NewReader(in))
	if err != nil {
		t.Fatalf("stream-level error: %v", err)
	}
	return recs, recErrs
}

func ids(recs []*Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.ID
	}
	return out
}

func TestTolerantCleanInputIdentical(t *testing.T) {
	inputs := []string{
		"@r1 lane1\nACGT\n+\nIIII\n@r2\nGG\n+r2\nJJ\n",
		">a desc\nACGT\nACGT\n>b\nTT\n",
		"@r\nACGT\n+\n@@II\n", // quality line legitimately starts with '@'
	}
	for _, in := range inputs {
		strict, err := ReadAll(strings.NewReader(in))
		if err != nil {
			t.Fatalf("strict parse of clean input failed: %v", err)
		}
		tol, recErrs := readTolerant(t, in)
		if len(recErrs) != 0 {
			t.Fatalf("tolerant mode reported errors on clean input: %v", recErrs)
		}
		if len(tol) != len(strict) {
			t.Fatalf("tolerant=%d strict=%d records", len(tol), len(strict))
		}
		for i := range tol {
			if tol[i].ID != strict[i].ID || string(tol[i].Seq) != string(strict[i].Seq) ||
				string(tol[i].Qual) != string(strict[i].Qual) {
				t.Fatalf("record %d diverged: %+v vs %+v", i, tol[i], strict[i])
			}
		}
	}
}

func TestTolerantFastqSkipsBadRecord(t *testing.T) {
	cases := []struct {
		name       string
		in         string
		wantIDs    []string
		wantReason string
	}{
		{
			name:       "qual length mismatch",
			in:         "@good1\nACGT\n+\nIIII\n@bad\nACGT\n+\nII\n@good2\nTTTT\n+\nJJJJ\n",
			wantIDs:    []string{"good1", "good2"},
			wantReason: reasonQualMismatch,
		},
		{
			name:       "missing separator",
			in:         "@bad\nACGT\nIIII\n@good\nTT\n+\nJJ\n",
			wantIDs:    []string{"good"},
			wantReason: reasonBadSeparator,
		},
		{
			name:       "truncated record then next header",
			in:         "@bad\nACGT\n@good\nTT\n+\nJJ\n",
			wantIDs:    []string{"good"},
			wantReason: reasonBadSeparator,
		},
		{
			name:       "blank line mid-file",
			in:         "@good1\nAC\n+\nII\n\n\n@good2\nGT\n+\nJJ\n",
			wantIDs:    []string{"good1", "good2"},
			wantReason: reasonBlankLine,
		},
		{
			name:       "empty header id",
			in:         "@\nAC\n+\nII\n@good\nGT\n+\nJJ\n",
			wantIDs:    []string{"good"},
			wantReason: reasonEmptyID,
		},
		{
			name:       "garbage between records",
			in:         "@good1\nAC\n+\nII\n@bad\nxx\nyy\nzz\nnot a record\n@good2\nGT\n+\nJJ\n",
			wantIDs:    []string{"good1", "good2"},
			wantReason: reasonBadSeparator,
		},
		{
			name:       "truncated at eof",
			in:         "@good\nAC\n+\nII\n@bad\nACGT\n+\n",
			wantIDs:    []string{"good"},
			wantReason: reasonTruncated,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs, recErrs := readTolerant(t, tc.in)
			got := ids(recs)
			if strings.Join(got, ",") != strings.Join(tc.wantIDs, ",") {
				t.Fatalf("surviving IDs = %v, want %v (errs: %v)", got, tc.wantIDs, recErrs)
			}
			if len(recErrs) == 0 {
				t.Fatal("no RecordError reported")
			}
			if recErrs[0].Reason != tc.wantReason {
				t.Errorf("reason = %q, want %q", recErrs[0].Reason, tc.wantReason)
			}
			if recErrs[0].Line == 0 {
				t.Error("RecordError carries no line number")
			}
		})
	}
}

func TestTolerantRecordErrorCarriesID(t *testing.T) {
	_, recErrs := readTolerant(t, "@known\nACGT\n+\nII\n@ok\nAC\n+\nII\n")
	if len(recErrs) != 1 || recErrs[0].RecordID != "known" {
		t.Fatalf("recErrs = %v, want one error for record \"known\"", recErrs)
	}
}

func TestTolerantFastaSkipsBadRecord(t *testing.T) {
	recs, recErrs := readTolerant(t, ">good1\nACGT\n>bad\n>good2\nTTTT\n")
	if strings.Join(ids(recs), ",") != "good1,good2" {
		t.Fatalf("surviving IDs = %v", ids(recs))
	}
	if len(recErrs) != 1 || recErrs[0].Reason != reasonBadSequence || recErrs[0].RecordID != "bad" {
		t.Fatalf("recErrs = %v", recErrs)
	}
}

func TestStrictStillFailsClosed(t *testing.T) {
	// The tolerant machinery must not leak into the default mode: a strict
	// reader still aborts on the first malformed record, as a *RecordError.
	rd, err := NewReader(strings.NewReader("@bad\nACGT\n+\nII\n@good\nAC\n+\nII\n"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = rd.Read()
	var re *RecordError
	if !errors.As(err, &re) {
		t.Fatalf("strict error = %v, want *RecordError", err)
	}
	if re.Reason != reasonQualMismatch {
		t.Errorf("reason = %q", re.Reason)
	}
}

func TestFastqCRLF(t *testing.T) {
	in := "@r1 lane\r\nACGT\r\n+\r\nIIII\r\n@r2\r\nGG\r\n+\r\nJJ\r\n"
	recs, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0].Qual) != "IIII" || string(recs[1].Seq) != "GG" {
		t.Fatalf("CRLF FASTQ parse: %+v", recs)
	}
}

func TestFastaCRLFTrailingBlanks(t *testing.T) {
	in := ">a desc\r\nACGT\r\nACGT\r\n\r\n\r\n"
	recs, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Seq) != "ACGTACGT" {
		t.Fatalf("CRLF FASTA parse: %+v", recs)
	}
}

func TestFastqTrailingBlankLines(t *testing.T) {
	for _, in := range []string{
		"@r\nACGT\n+\nIIII\n\n",
		"@r\nACGT\n+\nIIII\n\n\n\n",
		"@r\r\nACGT\r\n+\r\nIIII\r\n\r\n\r\n",
	} {
		recs, err := ReadAll(strings.NewReader(in))
		if err != nil {
			t.Errorf("trailing blanks rejected for %q: %v", in, err)
			continue
		}
		if len(recs) != 1 || recs[0].ID != "r" {
			t.Errorf("parse of %q: %+v", in, recs)
		}
	}
	// A blank line followed by more records is still an error in strict mode.
	if _, err := ReadAll(strings.NewReader("@r\nAC\n+\nII\n\n@x\nAC\n+\nII\n")); err == nil {
		t.Error("interior blank line accepted in strict mode")
	}
}

func TestTolerantStreaming(t *testing.T) {
	// Interleave good and bad records at scale; every Read must make
	// progress and the tallies must add up.
	var sb strings.Builder
	good := 0
	for i := 0; i < 300; i++ {
		if i%3 == 1 {
			sb.WriteString("@bad\nACGTACGT\n+\nII\n") // short quality
		} else {
			sb.WriteString("@r\nACGTACGT\n+\nIIIIIIII\n")
			good++
		}
	}
	rd, err := NewReader(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	rd.SetTolerant(true)
	valid, malformed := 0, 0
	for {
		_, err := rd.Read()
		if err == io.EOF {
			break
		}
		var re *RecordError
		if errors.As(err, &re) {
			malformed++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		valid++
	}
	if valid != good || malformed != 300-good {
		t.Fatalf("valid=%d malformed=%d, want %d/%d", valid, malformed, good, 300-good)
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
