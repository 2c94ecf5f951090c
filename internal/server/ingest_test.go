package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/fastx"
	"bwaver/internal/obs"
	"bwaver/internal/qc"
	"bwaver/internal/readsim"
	"bwaver/internal/runner"
)

// watchedReads sits behind a job's reads payload and notes how much of it the
// job had consumed when its first row reached the stream. The served runner
// pulls its batches inline, so every Read happens on the job goroutine, in
// step with the rows it commits.
type watchedReads struct {
	io.ReadCloser
	rows       func() int // rows committed to the job's stream
	n          int64
	atFirstRow int64 // n when a Read first found a row committed; -1 until then
}

func (w *watchedReads) Read(p []byte) (int, error) {
	if w.atFirstRow < 0 && w.rows() > 0 {
		w.atFirstRow = w.n
	}
	n, err := w.ReadCloser.Read(p)
	w.n += int64(n)
	return n, err
}

// TestServedJobReadsABatchAhead: a served job maps while it parses. When the
// first mapping row of a 60-batch durable chunked upload is committed, the
// job has read its reads payload a batch or two ahead (plus the decoder's
// 64 KiB buffer), not to the end.
func TestServedJobReadsABatchAhead(t *testing.T) {
	const batch, batches = 16, 60
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 20000, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := readsim.Simulate(ref, readsim.ReadsConfig{Count: batch * batches, Length: 100, MappingRatio: 0.8, Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	var fasta, fastq bytes.Buffer
	fw := fastx.NewWriter(&fasta, fastx.FASTA, false)
	fw.Write(&fastx.Record{ID: "ref", Seq: []byte(ref.String())})
	fw.Close()
	qw := fastx.NewWriter(&fastq, fastx.FASTQ, false)
	for _, r := range sim {
		qw.Write(&fastx.Record{ID: r.ID, Seq: []byte(r.Seq.String())})
	}
	qw.Close()

	s, err := Open(Config{StateDir: t.TempDir(), StreamBatch: batch})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var watch *watchedReads
	s.testHookOpenReads = func(rc io.ReadCloser) io.ReadCloser {
		watch = &watchedReads{ReadCloser: rc, atFirstRow: -1, rows: func() int {
			s.mu.Lock()
			st := s.jobs[1].stream
			s.mu.Unlock()
			if st == nil {
				return 0
			}
			_, lines, _, _, _ := st.snapshot()
			return lines
		}}
		return watch
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id := chunkedSubmit(t, ts, fasta.Bytes(), fastq.Bytes(), 50_000)
	if j := waitForState(t, ts, id, StateDone); j.Reads != len(sim) {
		t.Fatalf("job mapped %d reads, want %d", j.Reads, len(sim))
	}
	s.Wait()

	total := int64(fastq.Len())
	batchBytes := total / batches
	if watch.n != total {
		t.Fatalf("job read %d of %d payload bytes", watch.n, total)
	}
	if watch.atFirstRow < 0 || watch.atFirstRow > 2*batchBytes+64<<10 {
		t.Errorf("first row committed with %d of %d payload bytes read (a batch is %d); the job parsed ahead of its mapping",
			watch.atFirstRow, total, batchBytes)
	}
}

// streamLines fetches a finished job's NDJSON stream, terminal line included.
func streamLines(t *testing.T, ts *httptest.Server, id int) []string {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/api/jobs/%d/stream", ts.URL, id), nil)
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimRight(string(body), "\n"), "\n")
}

// TestFailedJobAccountingAddsUp: a strict policy meets a truncated record in
// the fourth of five batches. The job fails there, with the decoder's line in
// its error; the three batches before it stand in the stream, reject rows
// leading each; no results are served; and the report of what the gate had
// handed out balances on the job, in /api/stats and after a journal replay.
func TestFailedJobAccountingAddsUp(t *testing.T) {
	refFasta, _, sim := testData(t)
	const batch = 8
	var fastq bytes.Buffer
	for i := 0; i < 5*batch; i++ {
		seq := sim[i].Seq.String()
		if i%batch == 2 {
			seq = seq[:10] // under min_len: one reject per batch
		}
		if i == 3*batch+3 {
			fmt.Fprintf(&fastq, "@r%d\n%s\n", i, seq) // truncated: no separator, no qualities
			continue
		}
		fmt.Fprintf(&fastq, "@r%d\n%s\n+\n%s\n", i, seq, strings.Repeat("I", len(seq)))
	}
	// The decoder misses the '+' where the next record's header stands.
	wantLine := fmt.Sprintf("line %d", 4*(3*batch+3)+3)

	stateDir := t.TempDir()
	s, err := Open(Config{StateDir: stateDir, StreamBatch: batch})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	submitJob(t, s, ts, map[string]string{"backend": "cpu", "min_len": "20"},
		map[string][]byte{"reference": refFasta, "reads": fastq.Bytes()})
	j := waitForState(t, ts, 1, StateFailed)
	s.Wait()
	if !strings.Contains(j.Error, wantLine) {
		t.Errorf("error %q does not carry the decoder's %s", j.Error, wantLine)
	}

	lines := streamLines(t, ts, 1)
	if len(lines) != 3*batch+1 || !strings.Contains(lines[3*batch], `"event":"failed"`) {
		t.Fatalf("stream holds %d lines ending %q, want three batches and the failed event", len(lines), lines[len(lines)-1])
	}
	for b := 0; b < 3; b++ {
		rows := lines[b*batch : (b+1)*batch]
		if !strings.Contains(rows[0], `"event":"qc_reject"`) || !strings.Contains(rows[0], fmt.Sprintf(`"id":"r%d"`, b*batch+2)) {
			t.Errorf("batch %d opens with %q, want its reject row", b, rows[0])
		}
		for _, row := range rows[1:] {
			if strings.Contains(row, `"event"`) {
				t.Errorf("batch %d: unexpected %q among its mapping rows", b, row)
			}
		}
	}
	resp, err := http.Get(ts.URL + "/jobs/1/results")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("results of the failed job answered %d, want 409", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(stateDir, resultsName(1))); !os.IsNotExist(err) {
		t.Errorf("failed job left a results file behind: %v", err)
	}

	rep := j.QCReport
	if rep == nil || rep.Attempted != 3*batch || rep.Passed != 3*(batch-1) || rep.RejectedTotal() != 3 {
		t.Fatalf("report %+v, want the three batches handed out", rep)
	}
	if rep.Attempted != rep.Passed+rep.Malformed+rep.RejectedTotal() || j.Reads != rep.Passed {
		t.Errorf("accounting identity broken: %+v with %d reads", rep, j.Reads)
	}
	st := getStats(t, ts)
	if !reflect.DeepEqual(st.QC, *rep) {
		t.Errorf("stats qc block %+v, want the job's %+v", st.QC, *rep)
	}

	crashed := snapshotDir(t, stateDir)
	s.Close()
	s2, err := Open(Config{StateDir: crashed})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if j2 := getJobJSON(t, ts2, 1); j2.State != string(StateFailed) || !reflect.DeepEqual(j2.QCReport, rep) {
		t.Errorf("replayed job %s with report %+v, want failed with %+v", j2.State, j2.QCReport, rep)
	}
	if st2 := getStats(t, ts2); !reflect.DeepEqual(st2.QC, st.QC) {
		t.Errorf("replayed stats qc block %+v, want %+v", st2.QC, st.QC)
	}
}

// lockedBuffer is a log sink the server's goroutines can share with the test.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// spanAttr finds attribute key on the first span called name.
func spanAttr(spans []obs.SpanJSON, name, key string) (any, bool) {
	for _, sp := range spans {
		if sp.Name == name {
			v, ok := sp.Attrs[key]
			return v, ok
		}
		if v, ok := spanAttr(sp.Children, name, key); ok {
			return v, true
		}
	}
	return nil, false
}

// TestServerSaysWhatTheReferenceParseReplaced: every job that parses a
// reference holding N or IUPAC codes says how many it turned into A — one
// warning with the job's attributes, and an attribute on the span that did
// the parse (parse on an alias miss, build on the lazy parse) — and a job that
// parses nothing says nothing.
func TestServerSaysWhatTheReferenceParseReplaced(t *testing.T) {
	refA, readsA := aliasTestData(t, 35, 60, "\n", false)
	refB, readsB := aliasTestData(t, 37, 60, "\n", false)
	// Seven ambiguous bases in the first contig's second line.
	copy(refA[70:], "NNNRYKM")
	stateDir := t.TempDir()
	var logs lockedBuffer
	s, err := Open(Config{StateDir: stateDir, CacheEntries: 1, Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cpu := map[string]string{"backend": "cpu"}
	warnings := func() (n int, last map[string]any) {
		for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
			var rec map[string]any
			if json.Unmarshal([]byte(line), &rec) == nil && rec["level"] == "WARN" && strings.Contains(fmt.Sprint(rec["msg"]), "ambiguous bases") {
				n, last = n+1, rec
			}
		}
		return n, last
	}

	cold := runUpload(t, s, ts, cpu, refA, readsA)
	if n, rec := warnings(); n != 1 || rec["replaced_bases"] != 7.0 || rec["job"] != float64(cold.ID) {
		t.Fatalf("%d warnings after the cold job, last %v; want one, 7 bases, job %d", n, rec, cold.ID)
	}
	if v, _ := spanAttr(fetchTrace(t, ts, cold.ID, http.StatusOK).Spans, "parse", "replaced_bases"); v != 7.0 {
		t.Errorf("cold job's parse span says replaced_bases=%v, want 7", v)
	}

	warm := runUpload(t, s, ts, cpu, refA, readsA)
	if n, _ := warnings(); n != 1 {
		t.Errorf("%d warnings after a warm job that parsed nothing, want still one", n)
	}
	for _, span := range []string{"parse", "build"} {
		if v, ok := spanAttr(fetchTrace(t, ts, warm.ID, http.StatusOK).Spans, span, "replaced_bases"); ok {
			t.Errorf("warm job's %s span says replaced_bases=%v", span, v)
		}
	}

	// Evict A and delete its spill: the alias still names the key, so the
	// next job for A parses inside its build.
	runUpload(t, s, ts, cpu, refB, readsB)
	spills, _ := filepath.Glob(filepath.Join(stateDir, indexSpillDir, "*.bwx"))
	for _, p := range spills {
		os.Remove(p)
	}
	lazy := runUpload(t, s, ts, cpu, refA, readsA)
	if n, rec := warnings(); n != 2 || rec["replaced_bases"] != 7.0 || rec["job"] != float64(lazy.ID) {
		t.Errorf("%d warnings after the lazy parse, last %v; want two, the second for job %d", n, rec, lazy.ID)
	}
	if v, _ := spanAttr(fetchTrace(t, ts, lazy.ID, http.StatusOK).Spans, "build", "replaced_bases"); v != 7.0 {
		t.Errorf("lazy job's build span says replaced_bases=%v, want 7", v)
	}
}

// rejectingSource hands out batches in which every read was rejected, and
// cancels the job's context while handing out its third.
type rejectingSource struct {
	pulls  int
	cancel context.CancelFunc
}

func (r *rejectingSource) Next() (qc.Batch, error) {
	if r.pulls++; r.pulls == 3 {
		r.cancel()
	}
	return qc.Batch{Rejects: []qc.Reject{{Index: r.pulls, Reason: qc.ReasonTooShort}}}, nil
}

// A batch with no survivor calls no engine, and the engines are what poll the
// context: the runner must notice a cancelled job between such batches itself.
func TestRunBatchesStopsOnCancelBetweenRejectedBatches(t *testing.T) {
	s := openServer(t, Config{})
	defer s.Close()
	ix, err := core.BuildIndex(dna.MustParseSeq("ACGTACGTTGCA"), core.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	job := queueJob(t, s, cpuParams, "x")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &rejectingSource{cancel: cancel}
	if _, err := s.mapJob(ctx, job, &cacheEntry{ix: ix}, runner.NewReads(src, nil)); !errors.Is(err, context.Canceled) {
		t.Fatalf("mapJob returned %v, want the cancellation", err)
	}
	if src.pulls != 3 {
		t.Errorf("runner pulled %d batches, want to stop at the third", src.pulls)
	}
}
