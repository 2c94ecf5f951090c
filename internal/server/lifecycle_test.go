package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/fastx"
	"bwaver/internal/readsim"
	"bwaver/internal/runner"
)

// bigTestData builds an upload pair over a reference large enough that index
// construction dominates a cache lookup by well over an order of magnitude.
func bigTestData(t *testing.T, seed int64) (refFasta, readsFastq []byte) {
	t.Helper()
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 200_000, Seed: seed, RepeatFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 40, Length: 50, MappingRatio: 0.6, RevCompFraction: 0.5, Seed: seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var fb bytes.Buffer
	fw := fastx.NewWriter(&fb, fastx.FASTA, false)
	if err := fw.Write(&fastx.Record{ID: "bigref", Seq: []byte(ref.String())}); err != nil {
		t.Fatal(err)
	}
	fw.Close()
	var qb bytes.Buffer
	qw := fastx.NewWriter(&qb, fastx.FASTQ, false)
	for _, r := range sim {
		if err := qw.Write(&fastx.Record{ID: r.ID, Seq: []byte(r.Seq.String())}); err != nil {
			t.Fatal(err)
		}
	}
	qw.Close()
	return fb.Bytes(), qb.Bytes()
}

func getJobJSON(t *testing.T, ts *httptest.Server, id int) jobJSON {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/api/jobs/%d", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job %d returned %d", id, resp.StatusCode)
	}
	var j jobJSON
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j
}

func getStats(t *testing.T, ts *httptest.Server) statsJSON {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats returned %d", resp.StatusCode)
	}
	var st statsJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// The tentpole acceptance: a repeated reference skips index construction —
// the second submission reports a cache hit and a build time at least 10x
// below the first.
func TestCacheHitSpeedsRepeatSubmission(t *testing.T) {
	refFasta, readsFastq := bigTestData(t, 70)
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	s.Wait()
	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	s.Wait()

	first, second := getJobJSON(t, ts, 1), getJobJSON(t, ts, 2)
	if first.State != "done" || second.State != "done" {
		t.Fatalf("states %s/%s, want done/done", first.State, second.State)
	}
	if first.CacheHit {
		t.Error("first submission reported a cache hit")
	}
	if !second.CacheHit {
		t.Error("second submission did not report a cache hit")
	}
	if second.BuildMs*10 > first.BuildMs {
		t.Errorf("cache hit build %.3fms not 10x below miss build %.3fms", second.BuildMs, first.BuildMs)
	}

	st := getStats(t, ts)
	if st.Cache.Misses != 1 || st.Cache.Hits != 1 {
		t.Errorf("cache stats hits=%d misses=%d, want 1/1", st.Cache.Hits, st.Cache.Misses)
	}

	// Different RRR parameters address a different index: no false hit.
	submitJob(t, s, ts, map[string]string{"backend": "cpu", "b": "7"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	s.Wait()
	if third := getJobJSON(t, ts, 3); third.CacheHit {
		t.Error("different RRR parameters reported a cache hit")
	}
}

// Concurrent jobs for one reference must build once (single-flight): every
// job beyond the builder counts as a hit even while the build is in flight.
func TestCacheSingleFlight(t *testing.T) {
	refFasta, readsFastq := bigTestData(t, 71)
	s := openServer(t, Config{MaxConcurrentJobs: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const jobs = 4
	for i := 0; i < jobs; i++ {
		submitJob(t, s, ts, map[string]string{"backend": "cpu"},
			map[string][]byte{"reference": refFasta, "reads": readsFastq})
	}
	s.Wait()
	st := getStats(t, ts)
	if st.Cache.Misses != 1 {
		t.Errorf("%d misses for %d identical concurrent jobs, want 1 (single-flight)", st.Cache.Misses, jobs)
	}
	if st.Cache.Hits != jobs-1 {
		t.Errorf("%d hits, want %d", st.Cache.Hits, jobs-1)
	}
	for id := 1; id <= jobs; id++ {
		if j := getJobJSON(t, ts, id); j.State != "done" {
			t.Errorf("job %d state %s, want done", id, j.State)
		}
	}
}

func TestCancelRunningJob(t *testing.T) {
	refFasta, readsFastq := testDataSmall(t)
	s := openServer(t, Config{})
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	s.testHookBeforeRun = func(j *Job, ctx context.Context) {
		entered <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer close(release)

	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	<-entered // the job is running, held by the hook

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/jobs/1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel returned %d, want 202", resp.StatusCode)
	}
	s.Wait()
	if j := getJobJSON(t, ts, 1); j.State != string(StateCanceled) {
		t.Errorf("job state %s, want canceled", j.State)
	}

	// Cancelling a terminal job conflicts.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/api/jobs/1", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel of terminal job returned %d, want 409", resp.StatusCode)
	}

	// Cancelling a missing job 404s.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/api/jobs/99", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel of missing job returned %d, want 404", resp.StatusCode)
	}
}

// A DELETE that lands while the batch engine is mapping must still end the
// job: the engine returns the context's error at every worker count (the
// channel-fed pool k-mismatch mapping once had did not, with more than one
// worker), so the job reaches canceled and gives its admission slot to the
// next one.
func TestCancelMidMappingReleasesSlot(t *testing.T) {
	refFasta, readsFastq := testDataSmall(t)
	// Enough two-mismatch work that the job is still mapping when the DELETE
	// arrives; small batches so its progress shows that mapping has begun.
	s := openServer(t, Config{MaxConcurrentJobs: 1, StreamBatch: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	waitFor := func(id int, what string, ok func(jobJSON) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !ok(getJobJSON(t, ts, id)) {
			if time.Now().After(deadline) {
				t.Fatalf("job %d not %s after 10s: %+v", id, what, getJobJSON(t, ts, id))
			}
			time.Sleep(time.Millisecond)
		}
	}

	submitJob(t, s, ts, map[string]string{"backend": "cpu", "mismatches": "2"},
		map[string][]byte{"reference": refFasta, "reads": bytes.Repeat(readsFastq, 2000)})
	waitFor(1, "mapping", func(j jobJSON) bool { return j.Done > 0 })
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/jobs/1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel returned %d, want 202", resp.StatusCode)
	}
	waitFor(1, "canceled", func(j jobJSON) bool { return j.State == string(StateCanceled) })

	// The only slot is free again: a second job runs to completion.
	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	waitFor(2, "done", func(j jobJSON) bool { return j.State == string(StateDone) })
	s.Wait()
}

// A job still waiting for a pipeline slot cancels without ever running.
func TestCancelQueuedJob(t *testing.T) {
	refFasta, readsFastq := testDataSmall(t)
	s := openServer(t, Config{MaxConcurrentJobs: 1})
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	s.testHookBeforeRun = func(j *Job, ctx context.Context) {
		entered <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	<-entered // job 1 holds the only slot
	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/jobs/2", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel returned %d, want 202", resp.StatusCode)
	}

	// The queued job must reach the canceled state without waiting for the
	// running job to release its slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if j := getJobJSON(t, ts, 2); j.State == string(StateCanceled) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queued job not canceled after 5s: state %s", getJobJSON(t, ts, 2).State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	s.Wait()
	if j := getJobJSON(t, ts, 1); j.State != "done" {
		t.Errorf("job 1 state %s, want done", j.State)
	}
}

func TestJobTimeout(t *testing.T) {
	refFasta, readsFastq := testDataSmall(t)
	s := openServer(t, Config{JobTimeout: 30 * time.Millisecond})
	s.testHookBeforeRun = func(j *Job, ctx context.Context) { <-ctx.Done() }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	s.Wait()
	j := getJobJSON(t, ts, 1)
	if j.State != string(StateFailed) {
		t.Fatalf("timed-out job state %s, want failed", j.State)
	}
	if !strings.Contains(j.Error, "timeout") {
		t.Errorf("timeout error not visible: %q", j.Error)
	}
}

// Upload parsing happens on the job goroutine: a malformed reference is
// accepted at submit time and fails inside the job, where the error is
// visible.
func TestSubmitParseFailureFailsJob(t *testing.T) {
	_, readsFastq := testDataSmall(t)
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	loc := submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": []byte("not fasta at all"), "reads": readsFastq})
	if loc != "/jobs/1" {
		t.Fatalf("submit redirected to %q", loc)
	}
	s.Wait()
	j := getJobJSON(t, ts, 1)
	if j.State != string(StateFailed) {
		t.Fatalf("job state %s, want failed", j.State)
	}
	if !strings.Contains(j.Error, "reference") {
		t.Errorf("parse error not visible: %q", j.Error)
	}
}

// The FPGA backend must report progress like the CPU backend does.
func TestFPGAJobReportsProgress(t *testing.T) {
	refFasta, readsFastq := testDataSmall(t)
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	submitJob(t, s, ts, map[string]string{"backend": "fpga"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	s.Wait()
	j := getJobJSON(t, ts, 1)
	if j.State != "done" {
		t.Fatalf("job state %s, want done", j.State)
	}
	if j.Done != j.Reads || j.Done == 0 {
		t.Errorf("fpga job reported %d/%d done", j.Done, j.Reads)
	}
}

func TestStatsEndpoint(t *testing.T) {
	refFasta, readsFastq := testDataSmall(t)
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	s.Wait()

	st := getStats(t, ts)
	if st.Jobs["done"] != 1 {
		t.Errorf("stats jobs %v, want 1 done", st.Jobs)
	}
	if st.QueueDepth != 0 || st.Running != 0 {
		t.Errorf("queue depth %d running %d, want 0/0", st.QueueDepth, st.Running)
	}
	if st.Cache.Misses != 1 || st.Cache.Entries != 1 || st.Cache.SizeBytes <= 0 {
		t.Errorf("cache stats %+v, want one built entry", st.Cache)
	}
	if st.Stage.CompletedJobs != 1 || st.Stage.BuildMsTotal <= 0 || st.Stage.MapMsTotal < 0 {
		t.Errorf("stage totals %+v", st.Stage)
	}
}

func TestJobTTLEviction(t *testing.T) {
	s := openServer(t, Config{JobTTL: time.Minute})
	defer s.Close()
	job := queueJob(t, s, cpuParams, "x")
	s.mu.Lock()
	job.State = StateDone
	job.Finished = time.Now().Add(-time.Hour)
	s.mu.Unlock()
	fresh := queueJob(t, s, cpuParams, "y")

	if n := s.evictExpiredJobs(time.Now()); n != 1 {
		t.Fatalf("evicted %d jobs, want 1", n)
	}
	s.mu.Lock()
	_, expiredGone := s.jobs[job.ID]
	_, freshKept := s.jobs[fresh.ID]
	s.mu.Unlock()
	if expiredGone {
		t.Error("expired job still listed")
	}
	if !freshKept {
		t.Error("non-terminal job evicted")
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if st := getStats(t, ts); st.Evicted != 1 {
		t.Errorf("stats report %d evicted jobs, want 1", st.Evicted)
	}
}

// Read IDs are user input: tabs and newlines must not corrupt the TSV, exact
// or k-mismatch.
func TestTSVEscapesReadIDs(t *testing.T) {
	if got := runner.SanitizeID("a\tb\nc\rd"); got != "a b c d" {
		t.Fatalf("SanitizeID = %q", got)
	}
	ids := []string{"evil\tid\nsecond-line"}
	reads := []dna.Seq{dna.MustParseSeq("ACGT")}
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 3000, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildIndex(ref, core.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s := openServer(t, Config{})
	for mismatches, fields := range []int{6, 5} {
		job := queueJob(t, s, JobParams{Backend: "cpu", B: 15, SF: 50, Mismatches: mismatches}, "x")
		src := &sliceSource{ids: ids, reads: reads, batch: 1}
		if _, err := s.mapJob(context.Background(), job, &cacheEntry{ix: ix}, runner.NewReads(src, nil)); err != nil {
			t.Fatal(err)
		}
		tsv := string(readSpool(t, job.results))
		lines := strings.Split(strings.TrimRight(tsv, "\n"), "\n")
		if len(lines) != 2 {
			t.Fatalf("mismatches=%d: TSV has %d lines, want header + 1 row:\n%s", mismatches, len(lines), tsv)
		}
		if got := strings.Split(lines[1], "\t"); len(got) != fields {
			t.Fatalf("mismatches=%d: row has %d fields, want %d: %q", mismatches, len(got), fields, lines[1])
		}
	}
}

// The demo is reproducible: one fixed seed drives genome and reads, and an
// explicit ?seed=N picks a different dataset.
func TestDemoReproducible(t *testing.T) {
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}

	runDemo := func(url string) (int, []byte) {
		resp, err := client.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusSeeOther {
			t.Fatalf("demo returned %d", resp.StatusCode)
		}
		loc := resp.Header.Get("Location")
		s.Wait()
		res, err := http.Get(ts.URL + loc + "/results")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		tsv, _ := io.ReadAll(res.Body)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("demo results returned %d: %s", res.StatusCode, tsv)
		}
		var id int
		fmt.Sscanf(loc, "/jobs/%d", &id)
		return id, tsv
	}

	id1, tsv1 := runDemo(ts.URL + "/demo")
	id2, tsv2 := runDemo(ts.URL + "/demo")
	if !bytes.Equal(tsv1, tsv2) {
		t.Error("two default demo runs produced different results")
	}
	_, tsv3 := runDemo(ts.URL + "/demo?seed=7")
	if bytes.Equal(tsv1, tsv3) {
		t.Error("seed override did not change the demo dataset")
	}

	j1, j2 := getJobJSON(t, ts, id1), getJobJSON(t, ts, id2)
	if j1.Mismatches != 0 || j2.Mismatches != 0 {
		t.Errorf("demo mismatch budgets %d/%d, want 0", j1.Mismatches, j2.Mismatches)
	}
	// The repeated demo reference must come from the cache.
	if j1.CacheHit || !j2.CacheHit {
		t.Errorf("demo cache hits %t/%t, want false/true", j1.CacheHit, j2.CacheHit)
	}

	// A malformed seed is rejected.
	resp, err := client.Get(ts.URL + "/demo?seed=abc")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad seed returned %d, want 400", resp.StatusCode)
	}
}

// testDataSmall reuses the seed-data helper from server_test.go but returns
// only the upload bytes.
func testDataSmall(t *testing.T) (refFasta, readsFastq []byte) {
	t.Helper()
	refFasta, readsFastq, _ = testData(t)
	return refFasta, readsFastq
}
