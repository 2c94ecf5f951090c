package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bwaver/internal/core"
)

// snapshotDir copies src into a fresh temp directory, simulating the disk
// state a crash would leave behind at that instant.
func snapshotDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func fetchResults(t *testing.T, ts *httptest.Server, id int) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + itoa(id) + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results for job %d returned %d", id, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func waitForState(t *testing.T, ts *httptest.Server, id int, want JobState) jobJSON {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		j := getJobJSON(t, ts, id)
		if j.State == string(want) {
			return j
		}
		if JobState(j.State).terminal() || time.Now().After(deadline) {
			t.Fatalf("job %d state %q (err %q), want %s", id, j.State, j.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The crash-recovery contract: a server killed with one job finished and one
// mid-flight comes back with the finished job's results intact and the
// interrupted job re-queued, re-run, and bit-identical to the undisturbed
// run — both jobs mapped the same upload. A k-mismatch job is held to the
// same bar across backends: replayed on the FPGA model, it equals the
// undisturbed CPU run.
func TestCrashRecoveryReplaysJobs(t *testing.T) {
	for _, tc := range []struct {
		name               string
		finished, replayed map[string]string
	}{
		{"exact", map[string]string{"backend": "cpu"}, map[string]string{"backend": "cpu"}},
		{"mismatch1", map[string]string{"backend": "cpu", "mismatches": "1"}, map[string]string{"backend": "fpga", "mismatches": "1"}},
	} {
		t.Run(tc.name, func(t *testing.T) { crashRecoveryReplays(t, tc.finished, tc.replayed) })
	}
}

func crashRecoveryReplays(t *testing.T, finished, replayed map[string]string) {
	refFasta, readsFastq := testDataSmall(t)
	stateDir := t.TempDir()
	s, err := Open(Config{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var hookOnce sync.Once
	entered := make(chan int, 4)
	s.testHookBeforeRun = func(j *Job, ctx context.Context) {
		if j.ID != 2 {
			return
		}
		entered <- j.ID
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer hookOnce.Do(func() { close(release) })

	upload := map[string][]byte{"reference": refFasta, "reads": readsFastq}
	submitJob(t, s, ts, finished, upload)
	waitForState(t, ts, 1, StateDone)
	goldenResults := fetchResults(t, ts, 1)

	submitJob(t, s, ts, replayed, upload)
	<-entered // job 2 is running, held by the hook: mid-flight

	// "Crash": snapshot the disk as-is and bring up a fresh server on the
	// copy. The first server keeps running against the original directory;
	// nothing it does after this point can leak into the snapshot.
	crashed := snapshotDir(t, stateDir)
	s2, err := Open(Config{StateDir: crashed})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	// Job 1 was terminal: restored verbatim, results served again.
	j1 := getJobJSON(t, ts2, 1)
	if j1.State != string(StateDone) {
		t.Fatalf("restored job 1 state %q, want done", j1.State)
	}
	if got := fetchResults(t, ts2, 1); string(got) != string(goldenResults) {
		t.Error("restored results differ from the originals")
	}

	// Job 2 was mid-flight: re-queued from its journaled payloads and run
	// to completion, producing the same mapping bit for bit.
	waitForState(t, ts2, 2, StateDone)
	if got := fetchResults(t, ts2, 2); string(got) != string(goldenResults) {
		t.Error("replayed job results differ from the undisturbed run")
	}
	st := getStats(t, ts2)
	if st.Admission.JobsReplayed != 1 {
		t.Errorf("jobs_replayed = %d, want 1", st.Admission.JobsReplayed)
	}
	if !st.Admission.Durable {
		t.Error("stats do not report the server as durable")
	}

	hookOnce.Do(func() { close(release) })
	s.Wait()
	s.Close()
}

// A staged upload part a crash left behind — the server died while a
// multipart body was coming in — is deleted when the state dir is reopened,
// and the job the journal had accepted still replays.
func TestRecoverDeletesStagedParts(t *testing.T) {
	refFasta, readsFastq := testDataSmall(t)
	stateDir := t.TempDir()
	s := openServer(t, Config{StateDir: stateDir})
	hold := make(chan struct{})
	s.testHookBeforeRun = func(j *Job, ctx context.Context) {
		select {
		case <-hold:
		case <-ctx.Done():
		}
	}
	ts := httptest.NewServer(s.Handler())
	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	crashed := snapshotDir(t, stateDir)
	close(hold)
	s.Wait()
	ts.Close()
	s.Close()

	staged := filepath.Join(crashed, payloadsDir, "staged-1234")
	if err := os.WriteFile(staged, refFasta[:len(refFasta)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openServer(t, Config{StateDir: crashed})
	defer s2.Close()
	if _, err := os.Stat(staged); !os.IsNotExist(err) {
		t.Fatalf("staged part survived the restart: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if j := waitForState(t, ts2, 1, StateDone); j.Mapped == 0 {
		t.Errorf("replayed job mapped nothing: %+v", j)
	}
	if st := getStats(t, ts2); st.Admission.JobsReplayed != 1 {
		t.Errorf("jobs_replayed = %d, want 1", st.Admission.JobsReplayed)
	}
}

// A restored job must survive its index being evicted while it replays: with
// a one-entry cache and two replayed jobs over different references, the LRU
// evicts whichever index the other job displaced, and both jobs must still
// finish via the single-flight rebuild (or the disk spill) rather than fail.
func TestReplaySurvivesCacheEviction(t *testing.T) {
	refA, readsA := testDataSmall(t)
	refB, readsB := bigTestData(t, 77)
	stateDir := t.TempDir()
	s, err := Open(Config{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	var holdOnce sync.Once
	s.testHookBeforeRun = func(j *Job, ctx context.Context) {
		select {
		case <-hold:
		case <-ctx.Done():
		}
	}
	ts := httptest.NewServer(s.Handler())
	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refA, "reads": readsA})
	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refB, "reads": readsB})
	// Both jobs are journaled as accepted and neither has finished: the
	// snapshot captures two unfinished jobs.
	crashed := snapshotDir(t, stateDir)
	holdOnce.Do(func() { close(hold) })
	s.Wait()
	ts.Close()
	s.Close()

	// Restart with room for only one cached index. Both replayed jobs run
	// concurrently (2 slots), so each one's entry is evicted while the
	// other builds — completion proves eviction never fails a replay.
	s2, err := Open(Config{StateDir: crashed, CacheEntries: 1, MaxConcurrentJobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	waitForState(t, ts2, 1, StateDone)
	waitForState(t, ts2, 2, StateDone)
	if st := getStats(t, ts2); st.Admission.JobsReplayed != 2 {
		t.Errorf("jobs_replayed = %d, want 2", st.Admission.JobsReplayed)
	}
}

// A corrupt spilled index must be rejected by its checksum and rebuilt
// transparently: the job that needed it still completes, and the bad file is
// replaced by a good one.
func TestCorruptSpillRejectedAndRebuilt(t *testing.T) {
	refFasta, readsFastq := testDataSmall(t)
	stateDir := t.TempDir()
	s, err := Open(Config{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	upload := map[string][]byte{"reference": refFasta, "reads": readsFastq}
	submitJob(t, s, ts, map[string]string{"backend": "cpu"}, upload)
	waitForState(t, ts, 1, StateDone)
	golden := fetchResults(t, ts, 1)
	ts.Close()
	s.Close()

	spillDir := filepath.Join(stateDir, indexSpillDir)
	entries, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("spill dir holds %d files, want 1", len(entries))
	}
	spill := filepath.Join(spillDir, entries[0].Name())
	data, err := os.ReadFile(spill)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(spill, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh server's cache is cold, so the repeat submission goes to the
	// (bit-flipped) spill file first. The checksum must reject it and the
	// job must rebuild and succeed with identical output.
	s2, err := Open(Config{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	submitJob(t, s2, ts2, map[string]string{"backend": "cpu"}, upload)
	waitForState(t, ts2, 2, StateDone)
	if got := fetchResults(t, ts2, 2); string(got) != string(golden) {
		t.Error("rebuilt index produced different results")
	}
	// The rejected file was removed and the rebuild spilled a fresh copy.
	if _, err := core.LoadFile(spill); err != nil {
		t.Errorf("spill file not replaced by a valid one: %v", err)
	}
	if st := getStats(t, ts2); st.Cache.DiskHits != 0 {
		t.Errorf("disk_hits = %d, want 0 (corrupt file must not count as a hit)", st.Cache.DiskHits)
	}
}

// A warm spill file short-circuits construction on a cold cache.
func TestSpillServesRestart(t *testing.T) {
	refFasta, readsFastq := testDataSmall(t)
	stateDir := t.TempDir()
	s, err := Open(Config{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	upload := map[string][]byte{"reference": refFasta, "reads": readsFastq}
	submitJob(t, s, ts, map[string]string{"backend": "cpu"}, upload)
	waitForState(t, ts, 1, StateDone)
	ts.Close()
	s.Close()

	s2, err := Open(Config{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	submitJob(t, s2, ts2, map[string]string{"backend": "cpu"}, upload)
	j := waitForState(t, ts2, 2, StateDone)
	if !j.CacheHit {
		t.Error("restart repeat did not report a cache hit from the spill")
	}
	if st := getStats(t, ts2); st.Cache.DiskHits != 1 {
		t.Errorf("disk_hits = %d, want 1", st.Cache.DiskHits)
	}
}

// Concurrent submits racing a drain must neither corrupt state nor leave an
// admitted job unfinished: every 303 (accepted) job reaches a terminal state
// and every rejection is the structured draining 503. Run under -race.
func TestDrainVersusConcurrentSubmits(t *testing.T) {
	refFasta, readsFastq := testDataSmall(t)
	s, err := Open(Config{StateDir: t.TempDir(), MaxQueue: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted := 0
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				body, ctype := buildUpload(t, map[string]string{"backend": "cpu"},
					map[string][]byte{"reference": refFasta, "reads": readsFastq})
				resp, err := client.Post(ts.URL+"/jobs", ctype, body)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusSeeOther:
					mu.Lock()
					accepted++
					mu.Unlock()
				case http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" {
						t.Error("draining 503 without Retry-After")
					}
				default:
					t.Errorf("submit returned %d", resp.StatusCode)
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()

	// Drain returned: every accepted job must be terminal, and the server
	// must refuse further work.
	s.mu.Lock()
	for id, j := range s.jobs {
		if !j.State.terminal() {
			t.Errorf("job %d still %s after drain", id, j.State)
		}
	}
	tracked := len(s.jobs)
	s.mu.Unlock()
	if tracked != accepted {
		t.Errorf("tracked %d jobs, accepted %d", tracked, accepted)
	}
	body, ctype := buildUpload(t, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	resp, err := client.Post(ts.URL+"/jobs", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit returned %d, want 503", resp.StatusCode)
	}
	if !s.Draining() {
		t.Error("server not draining after Drain")
	}
}

// A TTL-evicted job stays gone after a restart: the evicted record in the
// journal wins over the job's earlier done record, and compaction drops it.
func TestEvictionSurvivesRestart(t *testing.T) {
	refFasta, readsFastq := testDataSmall(t)
	stateDir := t.TempDir()
	s, err := Open(Config{StateDir: stateDir, JobTTL: 10 * time.Millisecond, JanitorInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	waitForState(t, ts, 1, StateDone)
	if n := s.evictExpiredJobs(time.Now().Add(time.Second)); n != 1 {
		t.Fatalf("evicted %d jobs, want 1", n)
	}
	ts.Close()
	s.Close()

	s2, err := Open(Config{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, err := http.Get(ts2.URL + "/api/jobs/1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job returned %d after restart, want 404", resp.StatusCode)
	}
	// The results file was removed with the eviction.
	if entries, err := os.ReadDir(filepath.Join(stateDir, resultsDir)); err != nil {
		t.Fatal(err)
	} else if len(entries) != 0 {
		t.Errorf("results dir holds %d files after eviction, want 0", len(entries))
	}
}
