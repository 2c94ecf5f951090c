package readsim

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"bwaver/internal/fastx"
)

func dirtyReads(n, length int) []FastqRead {
	out := make([]FastqRead, n)
	seq := []byte(strings.Repeat("ACGT", (length+3)/4)[:length])
	for i := range out {
		out[i] = FastqRead{ID: sprintfID(i), Seq: seq}
	}
	return out
}

func sprintfID(i int) string {
	return "r" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
}

func TestWriteDirtyFastqClean(t *testing.T) {
	var buf bytes.Buffer
	st, err := WriteDirtyFastq(&buf, dirtyReads(50, 40), DirtyConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Malformed != 0 || st.Records != 50 {
		t.Fatalf("stats = %+v", st)
	}
	recs, err := fastx.ReadAll(&buf)
	if err != nil {
		t.Fatalf("clean output rejected by strict parser: %v", err)
	}
	if len(recs) != 50 {
		t.Fatalf("got %d records", len(recs))
	}
	for _, r := range recs {
		if len(r.Qual) != len(r.Seq) {
			t.Fatal("generated qualities inconsistent")
		}
	}
}

func TestWriteDirtyFastqInjection(t *testing.T) {
	var buf bytes.Buffer
	cfg := DirtyConfig{MalformedFrac: 0.2, NFrac: 0.3, QualDrop: 0.3, Seed: 7}
	st, err := WriteDirtyFastq(&buf, dirtyReads(200, 40), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Malformed == 0 || st.NInjected == 0 || st.QualDropped == 0 {
		t.Fatalf("nothing injected: %+v", st)
	}
	// The strict parser must choke on the corpus...
	if _, err := fastx.ReadAll(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("strict parser accepted a malformed corpus")
	}
	// ...while the tolerant decoder recovers every clean record.
	rd, err := fastx.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	rd.SetTolerant(true)
	var recs []*fastx.Record
	var recErrs []*fastx.RecordError
	for {
		rec, err := rd.Read()
		var re *fastx.RecordError
		if err == io.EOF {
			break
		} else if errors.As(err, &re) {
			recErrs = append(recErrs, re)
		} else if err != nil {
			t.Fatal(err)
		} else {
			recs = append(recs, rec)
		}
	}
	if len(recErrs) == 0 {
		t.Fatal("tolerant decode saw no malformed records")
	}
	if len(recs) != st.Records-st.Malformed {
		t.Fatalf("recovered %d records, want the %d clean ones (of %d)",
			len(recs), st.Records-st.Malformed, st.Records)
	}
	// Determinism: the same seed corrupts the same records.
	var buf2 bytes.Buffer
	st2, err := WriteDirtyFastq(&buf2, dirtyReads(200, 40), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st2 != st || !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("dirty corpus generation is not deterministic")
	}
}
