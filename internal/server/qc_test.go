package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"bwaver/internal/fastx"
	"bwaver/internal/qc"
	"bwaver/internal/readsim"
)

// qcChaosPolicy is the gate the dirty-corpus test runs end to end. TrimQual
// cuts the collapsed 3' tails, MinLen then rejects the trimmed reads
// (too_short), MaxN rejects the spliced N runs (too_many_n), and pairing
// dooms each reject's mate (mate_rejected).
var qcChaosPolicy = qc.Policy{
	Tolerant: true, TrimQual: 10, MinLen: 50, MaxN: 4,
	QualitySort: true, Paired: true,
}

var qcChaosFields = map[string]string{
	"mode": "mem-pe", "backend": "cpu",
	"tolerant": "true", "trim_qual": "10", "min_len": "50", "max_n": "4",
	"quality_sort": "true",
}

// qcChaosCorpus builds the reference FASTA plus an interleaved paired FASTQ
// with >=10% malformed records, N runs, and collapsed quality tails.
func qcChaosCorpus(t *testing.T) (refFasta, corpus []byte, stats readsim.DirtyStats) {
	t.Helper()
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 20000, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := readsim.SimulatePairs(ref, readsim.PairConfig{
		Count: 60, ReadLength: 70, InsertMean: 250, InsertStdDev: 25,
		MappingRatio: 0.9, ErrorRate: 0.01, Seed: 78,
	})
	if err != nil {
		t.Fatal(err)
	}
	var fb bytes.Buffer
	fw := fastx.NewWriter(&fb, fastx.FASTA, false)
	if err := fw.Write(&fastx.Record{ID: "qcref", Seq: []byte(ref.String())}); err != nil {
		t.Fatal(err)
	}
	fw.Close()
	reads := make([]readsim.FastqRead, 0, 2*len(pairs))
	for _, p := range pairs {
		reads = append(reads,
			readsim.FastqRead{ID: p.ID + "/1", Seq: []byte(p.R1.String())},
			readsim.FastqRead{ID: p.ID + "/2", Seq: []byte(p.R2.String())})
	}
	var cb bytes.Buffer
	stats, err = readsim.WriteDirtyFastq(&cb, reads, readsim.DirtyConfig{
		MalformedFrac: 0.15, NFrac: 0.12, QualDrop: 0.4, Seed: 79,
	})
	if err != nil {
		t.Fatal(err)
	}
	if 10*stats.Malformed < stats.Records {
		t.Fatalf("corpus only %d/%d malformed, want >= 10%%", stats.Malformed, stats.Records)
	}
	return fb.Bytes(), cb.Bytes(), stats
}

// checkQCReport compares a served report against the offline ground truth.
func checkQCReport(t *testing.T, label string, got *qc.Report, want qc.Report) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no qc_report", label)
	}
	if got.Attempted != want.Attempted || got.Passed != want.Passed ||
		got.Malformed != want.Malformed || got.TrimmedBases != want.TrimmedBases {
		t.Errorf("%s report = %+v, want %+v", label, *got, want)
	}
	if !reflect.DeepEqual(got.Rejected, want.Rejected) {
		t.Errorf("%s rejected = %v, want %v", label, got.Rejected, want.Rejected)
	}
	if got.Attempted != got.Passed+got.Malformed+got.RejectedTotal() {
		t.Errorf("%s accounting identity broken: %+v", label, *got)
	}
}

// TestQCDirtyCorpusEndToEnd is the chaos drill: a >=10%-malformed interleaved
// paired corpus is mapped through the QC gate on both backends and compared
// against a pre-cleaned control; reject accounting must survive a journal
// replay bit for bit and surface on the job JSON, the stream, /api/stats and
// /metrics.
func TestQCDirtyCorpusEndToEnd(t *testing.T) {
	refFasta, corpus, _ := qcChaosCorpus(t)

	// Ground truth: the same policy applied offline.
	offline, err := qc.Ingest(bytes.NewReader(corpus), qcChaosPolicy)
	if err != nil {
		t.Fatal(err)
	}
	want := offline.Report
	if want.Passed == 0 || want.Malformed == 0 || want.RejectedTotal() == 0 {
		t.Fatalf("degenerate corpus: %+v", want)
	}
	for _, reason := range []string{"too_short", "too_many_n", "mate_rejected"} {
		if want.Rejected[reason] == 0 {
			t.Fatalf("corpus exercises no %s rejections: %v", reason, want.Rejected)
		}
	}
	if want.Passed%2 != 0 {
		t.Fatalf("paired gate let an odd survivor count through: %d", want.Passed)
	}

	stateDir := t.TempDir()
	s, err := Open(Config{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	upload := map[string][]byte{"reference": refFasta, "reads": corpus}
	cpuFields := qcChaosFields
	fpgaFields := map[string]string{}
	for k, v := range qcChaosFields {
		fpgaFields[k] = v
	}
	fpgaFields["backend"] = "fpga"
	cpuLoc := submitJob(t, s, ts, cpuFields, upload)
	fpgaLoc := submitJob(t, s, ts, fpgaFields, upload)

	// Control: the offline survivors, already trimmed/sorted/cleaned, mapped
	// without any QC. Identical output proves the gate is transparent to the
	// mapper.
	var clean bytes.Buffer
	cw := fastx.NewWriter(&clean, fastx.FASTA, false)
	for i, seq := range offline.Seqs {
		if err := cw.Write(&fastx.Record{ID: offline.IDs[i], Seq: []byte(seq.String())}); err != nil {
			t.Fatal(err)
		}
	}
	cw.Close()
	ctrlLoc := submitJob(t, s, ts,
		map[string]string{"mode": "mem-pe", "backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": clean.Bytes()})
	s.Wait()

	cpuSAM := fetchSAM(t, ts, cpuLoc, want.Passed)
	fpgaSAM := fetchSAM(t, ts, fpgaLoc, want.Passed)
	ctrlSAM := fetchSAM(t, ts, ctrlLoc, want.Passed)
	if cpuSAM != fpgaSAM {
		t.Error("CPU and FPGA backends disagree on the QC-gated corpus")
	}
	if cpuSAM != ctrlSAM {
		t.Error("QC-gated run differs from the pre-cleaned control")
	}

	// Per-job accounting on the job JSON.
	cpuID := strings.TrimPrefix(cpuLoc, "/jobs/")
	var cpuIDn int
	fmt.Sscanf(cpuID, "%d", &cpuIDn)
	job := getJobJSON(t, ts, cpuIDn)
	checkQCReport(t, "cpu job", job.QCReport, want)
	if job.QC == nil || !job.QC.Tolerant || job.QC.MinLen != 50 {
		t.Errorf("job JSON policy = %+v", job.QC)
	}

	// The NDJSON stream leads with one reject row per dropped read, reasons
	// clamped to the fixed enum.
	req, _ := http.NewRequest("GET", ts.URL+"/api/jobs/"+cpuID+"/stream", nil)
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	streamBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var rejectRows, mapRows int
	for _, line := range strings.Split(strings.TrimSpace(string(streamBody)), "\n") {
		switch {
		case strings.Contains(line, `"event":"qc_reject"`):
			if mapRows > 0 {
				t.Error("qc_reject row after a mapping row; rejects must lead the stream")
			}
			rejectRows++
			ok := false
			for _, reason := range append(qc.Reasons(), "invalid") {
				if strings.Contains(line, `"reason":"`+reason+`"`) {
					ok = true
				}
			}
			if !ok {
				t.Errorf("reject row with out-of-enum reason: %s", line)
			}
		case strings.Contains(line, `"event":`): // terminal summary
		default:
			mapRows++
		}
	}
	if rejectRows != len(offline.Rejects) {
		t.Errorf("stream carries %d reject rows, want %d", rejectRows, len(offline.Rejects))
	}
	if mapRows != want.Passed {
		t.Errorf("stream carries %d mapping rows, want %d", mapRows, want.Passed)
	}

	// Server-wide totals: the two gated jobs, and nothing from the control.
	st := getStats(t, ts)
	if st.QC.Attempted != 2*want.Attempted || st.QC.Malformed != 2*want.Malformed ||
		st.QC.Passed != 2*want.Passed || st.QC.TrimmedBases != 2*want.TrimmedBases {
		t.Errorf("stats qc block = %+v, want twice %+v", st.QC, want)
	}
	for reason, n := range want.Rejected {
		if st.QC.Rejected[reason] != 2*n {
			t.Errorf("stats qc rejected[%s] = %d, want %d", reason, st.QC.Rejected[reason], 2*n)
		}
	}

	// /metrics exports the fixed-enum families with matching values.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for reason, n := range want.Rejected {
		line := fmt.Sprintf(`bwaver_qc_rejected_total{reason=%q} %d`, reason, 2*n)
		if !strings.Contains(string(metrics), line) {
			t.Errorf("metrics missing %q", line)
		}
	}
	if line := fmt.Sprintf("bwaver_qc_malformed_total %d", 2*want.Malformed); !strings.Contains(string(metrics), line) {
		t.Errorf("metrics missing %q", line)
	}

	// Crash-replay the journal: the accounting must come back identical.
	crashed := snapshotDir(t, stateDir)
	s.Close()
	s2, err := Open(Config{StateDir: crashed})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	job2 := getJobJSON(t, ts2, cpuIDn)
	checkQCReport(t, "replayed job", job2.QCReport, want)
	st2 := getStats(t, ts2)
	if !reflect.DeepEqual(st2.QC, st.QC) {
		t.Errorf("replayed stats qc block = %+v, want %+v", st2.QC, st.QC)
	}
	s2.Wait()
}
