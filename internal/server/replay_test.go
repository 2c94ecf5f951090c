package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bwaver/internal/qc"
)

// fixtureDir is a state dir written by the server of commit 4275072, before a
// job's outcome became one type: a compacted snapshot of five jobs (done with
// a CPU fallback and a QC report, failed, canceled before launch, uploading,
// done), then one record of each of the seven types — a job done and evicted,
// an upload canceled, a job failed and one canceled mid-build. jobs.json is
// the job JSON that server replayed the dir to.
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
