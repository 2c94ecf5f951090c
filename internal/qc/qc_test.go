package qc

import (
	"math"
	"strings"
	"testing"
)

// qual builds a quality string of n bases at phred score q (offset 33).
func qual(n, q int) string {
	return strings.Repeat(string(rune(q+33)), n)
}

func fq(parts ...string) string { return strings.Join(parts, "") }

func rec(id, seq, q string) string { return "@" + id + "\n" + seq + "\n+\n" + q + "\n" }

func TestMeasure(t *testing.T) {
	// Four bases at phred 20: p = 0.01 each, maxEE = 0.04, meep = 1%.
	m := measure([]byte("ACGT"), []byte(qual(4, 20)), 33)
	if m.Length != 4 || m.NCount != 0 {
		t.Fatalf("length/ncount: %+v", m)
	}
	if math.Abs(m.MaxEE-0.04) > 1e-9 {
		t.Errorf("maxEE = %g, want 0.04", m.MaxEE)
	}
	if math.Abs(m.Meep-1.0) > 1e-9 {
		t.Errorf("meep = %g, want 1", m.Meep)
	}
	if math.Abs(m.AvgPhred-20) > 1e-9 {
		t.Errorf("avgPhred = %g, want 20", m.AvgPhred)
	}

	// Mixed qualities: the error-probability average is dominated by the
	// bad base, unlike a naive mean of scores.
	m = measure([]byte("AC"), []byte{33 + 2, 33 + 40}, 33)
	if m.AvgPhred > 6 {
		t.Errorf("avgPhred = %g, want error-prob-dominated (< 6)", m.AvgPhred)
	}

	// N counting.
	m = measure([]byte("ANNT"), nil, 0)
	if m.NCount != 2 || m.MaxEE != 0 {
		t.Errorf("N metrics: %+v", m)
	}
}

func TestDetectOffset(t *testing.T) {
	if got := DetectOffset([]byte("II!!")); got != 33 {
		t.Errorf("low bytes: got %d, want 33", got)
	}
	if got := DetectOffset([]byte("ffgh")); got != 64 {
		t.Errorf("high bytes: got %d, want 64", got)
	}
	// Ambiguous overlap region defaults to 33.
	if got := DetectOffset([]byte("IIII")); got != 33 {
		t.Errorf("ambiguous: got %d, want 33", got)
	}
	if got := DetectOffset(); got != 33 {
		t.Errorf("empty: got %d, want 33", got)
	}
}

func TestTrim3(t *testing.T) {
	// Phred 30,30,30,2,2 trimmed at threshold 10 keeps 3 bases.
	q := []byte{63, 63, 63, 35, 35}
	if n := trim3(q, 33, 10); n != 3 {
		t.Errorf("trim kept %d, want 3", n)
	}
	// Interior dip is not trimmed: stop at first good base from the 3' end.
	q = []byte{63, 35, 63}
	if n := trim3(q, 33, 10); n != 3 {
		t.Errorf("interior dip trimmed: kept %d, want 3", n)
	}
	if n := trim3([]byte{35, 35}, 33, 10); n != 0 {
		t.Errorf("all-bad read kept %d, want 0", n)
	}
}

func TestIngestGates(t *testing.T) {
	in := fq(
		rec("ok", "ACGTACGT", qual(8, 30)),
		rec("short", "ACG", qual(3, 30)),
		rec("enns", "ANNNANNN", qual(8, 30)),
		rec("dirty", "ACGTACGT", qual(8, 2)),
	)
	res, err := Ingest(strings.NewReader(in), Policy{MinLen: 5, MaxN: 2, MaxEE: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seqs) != 1 || res.IDs[0] != "ok" {
		t.Fatalf("survivors = %v", res.IDs)
	}
	r := res.Report
	if r.Attempted != 4 || r.Passed != 1 || r.Malformed != 0 {
		t.Fatalf("report = %+v", r)
	}
	want := map[string]int{reasonTooShort: 1, reasonTooManyN: 1, reasonMaxEE: 1}
	for reason, n := range want {
		if r.Rejected[reason] != n {
			t.Errorf("rejected[%s] = %d, want %d", reason, r.Rejected[reason], n)
		}
	}
	if r.RejectedTotal() != 3 {
		t.Errorf("rejectedTotal = %d", r.RejectedTotal())
	}
	if len(res.Rejects) != 3 {
		t.Fatalf("reject rows = %v", res.Rejects)
	}
	for _, rj := range res.Rejects {
		if !ValidReason(rj.Reason) {
			t.Errorf("reason %q outside the fixed enum", rj.Reason)
		}
	}
}

func TestIngestTrimming(t *testing.T) {
	// 8 good bases then 4 bad ones; trimming drops the tail, and the read
	// survives a MinLen that the untrimmed gate logic would also pass —
	// the point is the trimmed_bases accounting and the shorter output.
	in := rec("r", "ACGTACGTACGT", qual(8, 30)+qual(4, 2))
	res, err := Ingest(strings.NewReader(in), Policy{TrimQual: 10, MinLen: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seqs) != 1 || len(res.Seqs[0]) != 8 {
		t.Fatalf("trimmed read length = %v", res.Seqs)
	}
	if res.Report.TrimmedBases != 4 {
		t.Errorf("trimmedBases = %d, want 4", res.Report.TrimmedBases)
	}
	// Trimming can push a read under MinLen.
	in = rec("r", "ACGTACGT", qual(2, 30)+qual(6, 2))
	res, err = Ingest(strings.NewReader(in), Policy{TrimQual: 10, MinLen: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seqs) != 0 || res.Report.Rejected[reasonTooShort] != 1 {
		t.Fatalf("trim-to-reject: %+v", res.Report)
	}
}

func TestIngestTolerantMalformed(t *testing.T) {
	in := fq(
		rec("ok1", "ACGT", qual(4, 30)),
		"@bad\nACGT\n+\nII\n", // short quality line
		rec("ok2", "TTTT", qual(4, 30)),
	)
	res, err := Ingest(strings.NewReader(in), Policy{Tolerant: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seqs) != 2 {
		t.Fatalf("survivors = %v", res.IDs)
	}
	if res.Report.Malformed != 1 || res.Report.Attempted != 3 {
		t.Fatalf("report = %+v", res.Report)
	}
	if len(res.Rejects) != 1 || res.Rejects[0].Reason != ReasonMalformed || res.Rejects[0].ID != "bad" {
		t.Fatalf("rejects = %+v", res.Rejects)
	}
	// Strict mode still fails closed on the same input.
	if _, err := Ingest(strings.NewReader(in), Policy{}); err == nil {
		t.Fatal("strict ingest accepted malformed input")
	}
}

func TestIngestPairedMateRejection(t *testing.T) {
	in := fq(
		rec("p1/1", "ACGTACGT", qual(8, 30)),
		rec("p1/2", "ACGTACGT", qual(8, 30)),
		rec("p2/1", "ACG", qual(3, 30)), // too short
		rec("p2/2", "ACGTACGT", qual(8, 30)),
	)
	res, err := Ingest(strings.NewReader(in), Policy{Paired: true, MinLen: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seqs) != 2 || res.IDs[0] != "p1/1" || res.IDs[1] != "p1/2" {
		t.Fatalf("survivors = %v", res.IDs)
	}
	r := res.Report
	if r.Rejected[reasonTooShort] != 1 || r.Rejected[reasonMateRejected] != 1 {
		t.Fatalf("paired rejects = %+v", r.Rejected)
	}
}

func TestIngestPairedMalformedDoomsMate(t *testing.T) {
	// A malformed R1 must consume its slot: R2 is rejected as
	// mate_rejected and the following pair is NOT phase-shifted.
	in := fq(
		"@bad/1\nACGT\n+\nII\n",
		rec("bad/2", "ACGTACGT", qual(8, 30)),
		rec("p2/1", "ACGTACGT", qual(8, 30)),
		rec("p2/2", "ACGTACGT", qual(8, 30)),
	)
	res, err := Ingest(strings.NewReader(in), Policy{Paired: true, Tolerant: true, MinLen: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 2 || res.IDs[0] != "p2/1" || res.IDs[1] != "p2/2" {
		t.Fatalf("survivors = %v (pairing phase-shifted?)", res.IDs)
	}
	if res.Report.Malformed != 1 || res.Report.Rejected[reasonMateRejected] != 1 {
		t.Fatalf("report = %+v", res.Report)
	}
}

func TestQualitySortStableAndPairAware(t *testing.T) {
	in := fq(
		rec("dirty1", "ACGTACGT", qual(8, 5)),
		rec("clean1", "ACGTACGT", qual(8, 38)),
		rec("mid", "ACGTACGT", qual(8, 20)),
		rec("clean2", "ACGTACGT", qual(8, 38)),
	)
	res, err := Ingest(strings.NewReader(in), Policy{QualitySort: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"clean1", "clean2", "mid", "dirty1"}
	for i, id := range want {
		if res.IDs[i] != id {
			t.Fatalf("sort order = %v, want %v", res.IDs, want)
		}
	}

	// Paired: blocks move as units, keyed by combined quality.
	in = fq(
		rec("p1/1", "ACGTACGT", qual(8, 5)),
		rec("p1/2", "ACGTACGT", qual(8, 5)),
		rec("p2/1", "ACGTACGT", qual(8, 38)),
		rec("p2/2", "ACGTACGT", qual(8, 38)),
	)
	res, err = Ingest(strings.NewReader(in), Policy{QualitySort: true, Paired: true})
	if err != nil {
		t.Fatal(err)
	}
	wantP := []string{"p2/1", "p2/2", "p1/1", "p1/2"}
	for i, id := range wantP {
		if res.IDs[i] != id {
			t.Fatalf("paired sort order = %v, want %v", res.IDs, wantP)
		}
	}
}

func TestPolicyValidate(t *testing.T) {
	if err := (Policy{PhredOffset: 42}).Validate(); err == nil {
		t.Error("accepted bad offset")
	}
	if err := (Policy{MinLen: -1}).Validate(); err == nil {
		t.Error("accepted negative threshold")
	}
	for _, ee := range []float64{math.Inf(1), math.NaN()} {
		if err := (Policy{MaxEE: ee}).Validate(); err == nil {
			t.Errorf("accepted max_ee %v, which no journal record can hold", ee)
		}
	}
	if err := (Policy{PhredOffset: 64, MaxEE: 2}).Validate(); err != nil {
		t.Errorf("rejected valid policy: %v", err)
	}
	if (Policy{}).Active() {
		t.Error("zero policy reported active")
	}
	if !(Policy{QualitySort: true}).Active() {
		t.Error("sort-only policy reported inactive")
	}
}

func TestSourceHoldsBackLoneMate(t *testing.T) {
	// A batch boundary inside a pair: the odd trailing read is held for its
	// mate, not rejected, and leads the next batch.
	mk := func(id string) string { return rec(id, "ACGT", qual(4, 30)) }
	in := fq(mk("a/1"), mk("a/2"), mk("b/1"), mk("b/2"))
	src, err := NewSource(strings.NewReader(in), Policy{Paired: true, MinLen: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	first, err := src.Next()
	if err != nil || len(first.Seqs) != 2 {
		t.Fatalf("first batch = %d reads (%v), want the complete pair only", len(first.Seqs), err)
	}
	second, err := src.Next()
	if err != nil || len(second.Seqs) != 2 || second.IDs[0] != "b/1" {
		t.Fatalf("second batch = %v (%v), want the held pair", second.IDs, err)
	}
	rep := src.Report()
	if rep.Attempted != 4 || rep.Passed != 4 || rep.RejectedTotal() != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestIngestFastaInput(t *testing.T) {
	// FASTA reads have no qualities: quality gates are inert, length/N
	// gates still work, and the offset stays unreported.
	in := ">ok\nACGTACGT\n>short\nAC\n"
	res, err := Ingest(strings.NewReader(in), Policy{MinLen: 5, MaxEE: 0.5, TrimQual: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seqs) != 1 || res.IDs[0] != "ok" {
		t.Fatalf("survivors = %v", res.IDs)
	}
	if res.Report.PhredOffset != 0 {
		t.Errorf("offset = %d for FASTA", res.Report.PhredOffset)
	}
}

// DetectOffset drives offsetEvidence over quality strings the way a Source
// does, and picks the phred encoding base:
// any byte below 59 proves phred+33, a byte above 74 with none below 59
// indicates phred+64. Ambiguous input (all bytes in the overlap) defaults
// to the modern phred+33.
func DetectOffset(quals ...[]byte) int {
	var ev offsetEvidence
	for _, qual := range quals {
		if ev.add(qual); ev.low {
			break
		}
	}
	return ev.offset()
}
