package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"bwaver/internal/qc"
)

// fixtureDir is a state dir written by the server of commit 4275072, before a
// job's outcome became one type: a compacted snapshot of five jobs (done with
// a CPU fallback and a QC report, failed, canceled before launch, uploading,
// done), then one record of each of the seven types — a job done and evicted,
// an upload canceled, a job failed and one canceled mid-build. jobs.json is
// the job JSON that server replayed the dir to, but for the stage figures of
// the failed and canceled jobs and for the upload's reference name: replay
// now restores a job's outcome whole, so job 9 keeps the parse_ms its record
// holds, where that server zeroed it, and a job's placeholder name follows
// from its state, so upload 4 shows "(uploading)" as it did live, where that
// server showed "".
const fixtureDir = "testdata/journal"

// A journal written before the outcome became one type replays to the job
// JSON the writing server replayed it to, key by key, and its done jobs serve
// the results it left.
func TestJournalFixtureReplays(t *testing.T) {
	s := openServer(t, Config{StateDir: snapshotDir(t, filepath.Join(fixtureDir, "state"))})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/api/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var got []map[string]any
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(fixtureDir, "jobs.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []map[string]any
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d jobs, want %d", len(got), len(want))
	}
	for i := range want {
		keys := map[string]bool{}
		for k := range want[i] {
			keys[k] = true
		}
		for k := range got[i] {
			keys[k] = true
		}
		for k := range keys {
			if !reflect.DeepEqual(got[i][k], want[i][k]) {
				t.Errorf("job %v %q: got %v, want %v", want[i]["id"], k, got[i][k], want[i][k])
			}
		}
	}
	for _, id := range []int{1, 5} {
		want, err := os.ReadFile(filepath.Join(fixtureDir, "state", resultsName(id)))
		if err != nil {
			t.Fatal(err)
		}
		if got := fetchResults(t, ts, id); !bytes.Equal(got, want) {
			t.Errorf("job %d results differ from the ones the journal left", id)
		}
	}
}

// A journal record names no file: what a replay opens or removes is named by
// the job id, so paths written into a record cannot reach outside the state
// dir — not by canceling an upload, nor by downloading results.
func TestJournalNamesNoPaths(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "state")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	victim, secret := filepath.Join(root, "victim.txt"), filepath.Join(root, "secret.txt")
	for _, path := range []string{victim, secret} {
		if err := os.WriteFile(path, []byte("outside the state dir\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	journal := `{"type":"uploading","job":1,"backend":"cpu","b":15,"sf":50,"ref_payload":"../victim.txt","reads_payload":"../victim.txt"}
{"type":"done","job":2,"backend":"cpu","b":15,"sf":50,"reads":1,"results":"../secret.txt"}
`
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openServer(t, Config{StateDir: dir})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _, _ := doJSON(t, http.MethodDelete, ts.URL+"/api/jobs/1", nil, nil); code != http.StatusOK {
		t.Fatalf("cancel of the replayed upload answered %d", code)
	}
	if _, err := os.Stat(victim); err != nil {
		t.Errorf("canceling the upload removed a file outside the state dir: %v", err)
	}
	resp, err := http.Get(ts.URL + "/jobs/2/results")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK || strings.Contains(body.String(), "outside the state dir") {
		t.Errorf("results of job 2 served a file outside the state dir (%d): %q", resp.StatusCode, body)
	}
}

// jsonKeys returns the JSON keys of a struct type's fields.
func jsonKeys(v any) map[string]bool {
	keys := map[string]bool{}
	ty := reflect.TypeOf(v)
	for i := 0; i < ty.NumField(); i++ {
		if name, _, _ := strings.Cut(ty.Field(i).Tag.Get("json"), ","); name != "" && name != "-" {
			keys[name] = true
		}
	}
	return keys
}

// Each journal record carries only what it adds: a spec record the job's
// spec, a terminal record its outcome, a running or evicted record its type,
// job and time. A compacted snapshot carries spec and outcome both, and a
// job reads the same before and after a restart — a canceled one keeps the
// stage figures its run reached.
func TestJournalRecordsCarryWhatTheyAdd(t *testing.T) {
	refFasta, readsFastq := testDataSmall(t)
	dir := t.TempDir()
	s := openServer(t, Config{StateDir: dir, JobTTL: time.Millisecond, JanitorInterval: time.Hour})
	entered := make(chan struct{}, 1)
	s.testHookDuringBuild = func(j *Job, ctx context.Context) {
		if j.ID == 2 {
			entered <- struct{}{}
			<-ctx.Done()
		}
	}
	ts := httptest.NewServer(s.Handler())
	upload := map[string][]byte{"reference": refFasta, "reads": readsFastq}
	submitJob(t, s, ts, map[string]string{"backend": "cpu"}, upload)
	waitForState(t, ts, 1, StateDone)
	submitJob(t, s, ts, map[string]string{"backend": "cpu", "sf": "40"}, upload) // another index: a build
	<-entered
	if code, _, _ := doJSON(t, http.MethodDelete, ts.URL+"/api/jobs/2", nil, nil); code != http.StatusAccepted {
		t.Fatalf("cancel of the building job answered %d", code)
	}
	waitForState(t, ts, 2, StateCanceled)
	hdr := map[string]string{"Content-Type": "application/json", "Idempotency-Key": "k3"}
	if code, _, _ := doJSON(t, http.MethodPost, ts.URL+"/api/jobs", []byte(`{"backend":"cpu"}`), hdr); code != http.StatusCreated {
		t.Fatalf("create of job 3 answered %d", code)
	}
	if code, _, _ := doJSON(t, http.MethodDelete, ts.URL+"/api/jobs/3", nil, nil); code != http.StatusOK {
		t.Fatalf("cancel of the upload answered %d", code)
	}
	s.Wait()
	before := map[int]jobJSON{}
	for id := 1; id <= 3; id++ {
		before[id] = getJobJSON(t, ts, id)
	}
	if before[2].ParseMs <= 0 {
		t.Fatalf("job 2 was canceled with parse_ms %v, want its parse stage's figure", before[2].ParseMs)
	}
	ts.Close()
	s.Close()

	spec, out := jsonKeys(JobParams{}), jsonKeys(Outcome{})
	for _, k := range []string{"idem_key", "request_id", "created"} {
		spec[k] = true
	}
	records := func() []map[string]any {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join(dir, journalFile))
		if err != nil {
			t.Fatal(err)
		}
		var recs []map[string]any
		for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
			var rec map[string]any
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec)
		}
		return recs
	}
	holds := func(rec map[string]any, keys map[string]bool) (n int) {
		for k := range keys {
			if _, ok := rec[k]; ok {
				n++
			}
		}
		return n
	}
	seen := map[string]int{}
	for _, rec := range records() {
		typ := rec["type"].(string)
		seen[typ]++
		_, finished := rec["finished"]
		switch typ {
		case recRunning:
			if len(rec) != 3 {
				t.Errorf("running record %v carries more than its type, job and time", rec)
			}
		case recUploading, recAccepted:
			if holds(rec, out) > 0 || finished || rec["backend"] != "cpu" || rec["created"] == nil {
				t.Errorf("%s record %v: want the spec alone", typ, rec)
			}
		default:
			if holds(rec, spec) > 0 || !finished || rec["error"] == nil && typ != recDone {
				t.Errorf("%s record %v: want the outcome alone", typ, rec)
			}
		}
	}
	for _, typ := range []string{recUploading, recAccepted, recRunning, recDone, recCanceled} {
		if seen[typ] == 0 {
			t.Errorf("no %s record in %v", typ, seen)
		}
	}

	s = openServer(t, Config{StateDir: dir, JobTTL: time.Millisecond, JanitorInterval: time.Hour})
	defer s.Close()
	ts = httptest.NewServer(s.Handler())
	defer ts.Close()
	for id := 1; id <= 3; id++ {
		want, got := before[id], getJobJSON(t, ts, id)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("job %d after the restart:\n%+v\nbefore it:\n%+v", id, got, want)
		}
	}
	compacted := records()
	for _, rec := range compacted {
		if holds(rec, spec) == 0 || holds(rec, out) == 0 || rec["finished"] == nil {
			t.Errorf("snapshot %v is not self-contained", rec)
		}
	}
	if n := s.evictExpiredJobs(time.Now().Add(time.Second)); n != 3 {
		t.Fatalf("evicted %d jobs, want 3", n)
	}
	for _, rec := range records()[len(compacted):] {
		if rec["type"] != recEvicted || len(rec) != 3 {
			t.Errorf("record %v after the evictions, want an evicted record of type, job and time", rec)
		}
	}
}

// FuzzJournalReplay opens a server on arbitrary journal bytes. It must not
// panic; must open, write and remove nothing outside the state dir; must
// replay each job id at most once, with the next id above every replayed
// one; and its QC totals must be the sum of the (sanitized) reports of the
// terminal jobs it replayed.
func FuzzJournalReplay(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join(fixtureDir, "state", journalFile))
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(fixture, []byte("\n"))
	for _, line := range lines {
		f.Add(line) // one record of each type
	}
	f.Add(fixture)
	f.Add(fixture[:len(fixture)-40])                          // a torn tail
	f.Add(append(append([]byte{}, lines[0]...), lines[0]...)) // a duplicate record
	for _, rec := range []string{
		`{"type":"done","job":-3,"backend":"cpu","b":15,"sf":50,"reads":4,"qc_report":{"attempted":5,"passed":4,"rejected":{"too_short":1}}}`,
		`{"type":"accepted","job":9223372036854775807,"backend":"cpu","b":15,"sf":50}`,
		`{"type":"failed","job":4611686018427387904,"error":"x","qc_report":{"attempted":2,"rejected":{"made-up":2}}}`,
		`{"type":"uploading","job":1,"backend":"cpu","b":15,"sf":50,"ref_payload":"../sentinel","reads_payload":"/tmp/../sentinel"}`,
		`{"type":"done","job":2,"backend":"cpu","b":15,"sf":50,"results":"../sentinel","reads":1}`,
		`{"type":"canceled","job":3}` + "\n" + `{"type":"accepted","job":3,"backend":"cpu","b":15,"sf":50}`,
	} {
		f.Add([]byte(rec + "\n"))
	}
	f.Fuzz(func(t *testing.T, journal []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, "state")
		sentinel := filepath.Join(root, "sentinel")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sentinel, []byte("keep"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, journalFile), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Config{StateDir: dir})
		if err != nil {
			return // a journal the scanner cannot read refuses to open
		}
		defer s.Close()
		s.Wait()

		s.mu.Lock()
		var sum qc.Report // merged in replay order, as the first offset seen is kept
		ids := make([]int, 0, len(s.jobs))
		for id := range s.jobs {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			job := s.jobs[id]
			if job.ID != id || id >= s.nextID {
				t.Errorf("job %d replayed under id %d, next id %d", job.ID, id, s.nextID)
			}
			spools := []*spool{job.results}
			if job.stream != nil {
				spools = append(spools, job.stream.data)
			}
			if job.upload != nil {
				spools = append(spools, job.upload.ref, job.upload.reads)
			}
			for _, sp := range spools {
				if sp != nil && sp.path != "" && !strings.HasPrefix(sp.path, dir+string(filepath.Separator)) {
					t.Errorf("job %d holds %s, outside the state dir", id, sp.path)
				}
			}
			if rep := job.QCReport; rep != nil {
				if !job.State.terminal() {
					t.Errorf("job %d is %s but holds a QC report", id, job.State)
				}
				for reason := range rep.Rejected {
					if reason != "invalid" && !qc.ValidReason(reason) {
						t.Errorf("job %d reports reason %q", id, reason)
					}
				}
				sum.Merge(*rep)
			}
		}
		if !reflect.DeepEqual(sum, s.qcTotals) {
			t.Errorf("QC totals %+v, terminal reports sum to %+v", s.qcTotals, sum)
		}
		s.mu.Unlock()

		// The compacted journal holds one record per replayed job.
		compacted, err := os.Open(filepath.Join(dir, journalFile))
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		sc := bufio.NewScanner(compacted)
		for sc.Scan() {
			var rec journalRecord
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("compacted journal holds %q: %v", sc.Bytes(), err)
			}
			if seen[rec.Job] || s.jobs[rec.Job] == nil {
				t.Errorf("compacted journal holds job %d twice or unreplayed", rec.Job)
			}
			seen[rec.Job] = true
		}
		compacted.Close()
		if len(seen) != len(s.jobs) {
			t.Errorf("compacted journal holds %d jobs, %d replayed", len(seen), len(s.jobs))
		}

		// Cancel and download every job; the sentinel outside stays put.
		h := s.Handler()
		for id := range s.jobs {
			for _, req := range []*http.Request{
				httptest.NewRequest(http.MethodDelete, "/api/jobs/"+itoa(id), nil),
				httptest.NewRequest(http.MethodGet, "/jobs/"+itoa(id)+"/results", nil),
			} {
				h.ServeHTTP(httptest.NewRecorder(), req)
			}
		}
		s.Wait()
		if data, err := os.ReadFile(sentinel); err != nil || string(data) != "keep" {
			t.Errorf("the sentinel outside the state dir changed: %q, %v", data, err)
		}
		entries, err := os.ReadDir(root)
		if err != nil || len(entries) != 2 {
			t.Errorf("the state dir's parent holds %d entries (%v), want the dir and the sentinel", len(entries), err)
		}
	})
}

// stallingReads is a job's reads that stop, once stall reports true, until
// release closes; entered is closed when they stop. Reads come 256 bytes at a
// time, so a job pulls its next batch after mapping the one before.
type stallingReads struct {
	io.ReadCloser
	stall            func() bool
	entered, release chan struct{}
	stalled          bool
}

func (r *stallingReads) Read(p []byte) (int, error) {
	if !r.stalled && r.stall() {
		r.stalled = true
		close(r.entered)
		<-r.release
	}
	return r.ReadCloser.Read(p[:min(len(p), 256)])
}

// A job shows the same JSON after a restart as before it: a done job keeps
// its done count and peak result buffer, a job canceled mid-map how far it
// got, an upload in progress its "(uploading)" placeholder.
func TestJobJSONSurvivesRestart(t *testing.T) {
	refFasta, readsFastq := testDataSmall(t)
	dir := t.TempDir()
	s := openServer(t, Config{StateDir: dir, StreamBatch: 8})
	ts := httptest.NewServer(s.Handler())
	upload := map[string][]byte{"reference": refFasta, "reads": readsFastq}
	submitJob(t, s, ts, map[string]string{"backend": "cpu"}, upload)
	waitForState(t, ts, 1, StateDone)

	entered, release := make(chan struct{}), make(chan struct{})
	s.testHookOpenReads = func(rc io.ReadCloser) io.ReadCloser {
		return &stallingReads{ReadCloser: rc, entered: entered, release: release, stall: func() bool {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.jobs[2].Done > 0
		}}
	}
	submitJob(t, s, ts, map[string]string{"backend": "cpu", "mismatches": "2"}, upload)
	<-entered
	if code, _, _ := doJSON(t, http.MethodDelete, ts.URL+"/api/jobs/2", nil, nil); code != http.StatusAccepted {
		t.Fatalf("cancel of the mapping job answered %d", code)
	}
	close(release)
	waitForState(t, ts, 2, StateCanceled)
	hdr := map[string]string{"Content-Type": "application/json", "Idempotency-Key": "k3"}
	if code, _, _ := doJSON(t, http.MethodPost, ts.URL+"/api/jobs", []byte(`{"backend":"cpu"}`), hdr); code != http.StatusCreated {
		t.Fatalf("create of job 3 answered %d", code)
	}
	before := map[int]jobJSON{}
	for id := 1; id <= 3; id++ {
		before[id] = getJobJSON(t, ts, id)
	}
	if j := before[1]; j.Done != j.Reads || j.PeakResultBuf <= 0 {
		t.Fatalf("done job shows done %d of %d reads, peak %d", j.Done, j.Reads, j.PeakResultBuf)
	}
	if j := before[2]; j.Done <= 0 || j.Done >= before[1].Reads {
		t.Fatalf("canceled job shows done %d; want it canceled mid-map", j.Done)
	}
	if j := before[3]; j.RefName != "(uploading)" {
		t.Fatalf("upload in progress shows ref_name %q", j.RefName)
	}
	ts.Close()
	s.Close()

	s = openServer(t, Config{StateDir: dir, StreamBatch: 8})
	defer s.Close()
	ts = httptest.NewServer(s.Handler())
	defer ts.Close()
	for id := 1; id <= 3; id++ {
		if want, got := before[id], getJobJSON(t, ts, id); !reflect.DeepEqual(got, want) {
			t.Errorf("job %d after the restart:\n%+v\nbefore it:\n%+v", id, got, want)
		}
	}
}

// No reference-name placeholder is stored: a job without a parsed name shows
// the one its state implies, so a replayed job, restored to its state, shows
// what the live one did.
func TestRefNamePlaceholderFollowsState(t *testing.T) {
	for state, want := range map[JobState]string{
		StateUploading: "(uploading)",
		StateQueued:    "(parsing)",
		StateRunning:   "(parsing)",
		StateDone:      "",
		StateFailed:    "",
		StateCanceled:  "",
	} {
		j := &Job{State: state}
		if got := j.toJSON().RefName; got != want {
			t.Errorf("%s job shows ref_name %q, want %q", state, got, want)
		}
		j.RefName = "chr1"
		if got := j.toJSON().RefName; got != "chr1" {
			t.Errorf("%s job named chr1 shows ref_name %q", state, got)
		}
	}
}
