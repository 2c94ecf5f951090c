package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/fpga"
	"bwaver/internal/obs"
	"bwaver/internal/readsim"
	"bwaver/internal/rrr"
)

// scrapeMetrics fetches /metrics and sanity-checks the exposition format:
// right content type, and every sample line is "name{labels} value" with a
// parseable value.
func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Fatalf("sample line %q: bad value: %v", line, err)
		}
		if !strings.HasPrefix(line, "bwaver_") {
			t.Fatalf("sample line %q: unexpected metric prefix", line)
		}
	}
	return string(body)
}

// fetchTrace fetches a job's trace, failing unless the server answers with
// the given status.
func fetchTrace(t *testing.T, ts *httptest.Server, id, wantStatus int) obs.TraceJSON {
	t.Helper()
	resp, err := http.Get(ts.URL + fmt.Sprintf("/api/jobs/%d/trace", id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("trace returned %d, want %d: %s", resp.StatusCode, wantStatus, b)
	}
	var tr obs.TraceJSON
	if wantStatus == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// TestMetricsAndTraceUnderFaults runs FPGA jobs against a farm with one dead
// card while goroutines hammer /metrics and the per-job trace endpoint —
// the -race configuration the acceptance criteria call for — then checks
// the scrape exposes the job, cache, queue, resilience, and per-stage kernel
// families and the trace reconstructs the host+device timeline.
func TestMetricsAndTraceUnderFaults(t *testing.T) {
	refFasta, readsFastq, _ := testData(t)
	plan, err := fpga.ParseFaultPlan("seed=7,persistent=0:kernel")
	if err != nil {
		t.Fatal(err)
	}
	s := openServer(t, Config{
		Devices:   2,
		FaultPlan: plan,
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Background scrapers: they race against running jobs, breaker
	// transitions, and cache churn; the -race build is the assertion.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/metrics")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				resp, err = http.Get(ts.URL + "/api/jobs/1/trace")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}

	// Job 2 is submitted once job 1 is inside the build closure, that is, owns
	// the single-flight build: submitted together, either job could win it,
	// and the assertions below (job 1's trace holds the build phases; one
	// miss, then one hit) would hold only most of the time.
	building := make(chan struct{})
	s.testHookDuringBuild = func(*Job, context.Context) { close(building) }
	for i := range 2 {
		submitJob(t, s, ts, map[string]string{"backend": "fpga"},
			map[string][]byte{"reference": refFasta, "reads": readsFastq})
		if i == 0 {
			<-building
		}
	}
	s.Wait()
	close(stop)
	wg.Wait()

	for id := 1; id <= 2; id++ {
		if j := getJobJSON(t, ts, id); j.State != string(StateDone) {
			t.Fatalf("job %d state %s (%s), want done", id, j.State, j.Error)
		}
	}

	text := scrapeMetrics(t, ts)
	for _, want := range []string{
		`bwaver_jobs_finished_total{state="done"} 2`,
		`bwaver_job_stage_seconds_count{stage="map"} 2`,
		`bwaver_build_stage_seconds_count{stage="sa"} 1`,
		`bwaver_build_stage_seconds_count{stage="bwt"} 1`,
		`bwaver_build_stage_seconds_count{stage="encode"} 1`,
		`bwaver_index_cache_hits_total 1`,
		`bwaver_index_cache_misses_total 1`,
		`bwaver_fpga_stage_seconds_bucket{stage="kernel",le="+Inf"}`,
		`bwaver_fpga_faults_total{stage="kernel"}`,
		`bwaver_fpga_retries_total`,
		`bwaver_fpga_redistributed_shards_total`,
		`bwaver_breaker_state{device="0"}`,
		`bwaver_breaker_transitions_total{device="0",to="open"} 1`,
		`bwaver_queue_depth 0`,
		`bwaver_http_requests_total{route="POST /jobs",code="303"} 2`,
		`bwaver_http_request_seconds_count{route="GET /metrics"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// The first job's trace: a closed job root holding queue.wait, parse,
	// build (with the construction phases), and map (with the modeled
	// device timeline, tagged with the surviving device).
	tr := fetchTrace(t, ts, 1, http.StatusOK)
	if tr.ID != "job-1" {
		t.Fatalf("trace id %q", tr.ID)
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "job" {
		t.Fatalf("trace roots %+v, want single job span", tr.Spans)
	}
	root := tr.Spans[0]
	if root.DurationMs < 0 {
		t.Error("job root span still open after completion")
	}
	children := map[string]obs.SpanJSON{}
	for _, c := range root.Children {
		children[c.Name] = c
	}
	for _, want := range []string{"queue.wait", "parse", "build", "map"} {
		if _, ok := children[want]; !ok {
			t.Fatalf("job span missing child %q (have %v)", want, root.Children)
		}
	}
	buildPhases := map[string]bool{}
	for _, c := range children["build"].Children {
		buildPhases[c.Name] = true
	}
	for _, want := range []string{"build.sa", "build.bwt", "build.encode"} {
		if !buildPhases[want] {
			t.Errorf("build span missing phase %q", want)
		}
	}
	modeled := 0
	for _, c := range children["map"].Children {
		if !c.Modeled {
			continue
		}
		modeled++
		if c.DurationMs < 0 {
			t.Errorf("modeled span %q open", c.Name)
		}
		// Device 0's kernel is dead, so the winning timelines all belong to
		// device 1, attempt >= 1.
		if dev, ok := c.Attrs["device"].(float64); !ok || dev != 1 {
			t.Errorf("modeled span %q device attr %v, want 1", c.Name, c.Attrs["device"])
		}
		if att, ok := c.Attrs["attempt"].(float64); !ok || att < 1 {
			t.Errorf("modeled span %q attempt attr %v", c.Name, c.Attrs["attempt"])
		}
		if _, ok := c.Attrs["shard"]; !ok {
			t.Errorf("modeled span %q missing shard attr", c.Name)
		}
	}
	if modeled == 0 {
		t.Error("map span has no modeled device events")
	}

	// A job that was never launched has no trace.
	queueJob(t, s, cpuParams, "ghost")
	fetchTrace(t, ts, 3, http.StatusNotFound)
}

// TestHeapGauges: reading a heap gauge allocates nothing, and /metrics
// carries the Go heap's live bytes and GC goal, the goal no smaller than the
// live heap.
func TestHeapGauges(t *testing.T) {
	gauge := heapGauge("/gc/heap/goal:bytes")
	if allocs := testing.AllocsPerRun(100, func() { gauge() }); allocs != 0 {
		t.Errorf("reading a heap gauge allocated %.1f times", allocs)
	}
	s := openServer(t, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	runtime.GC() // the live figure is what a collection left
	text := scrapeMetrics(t, ts)
	value := func(name string) float64 {
		t.Helper()
		for _, line := range strings.Split(text, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
		}
		t.Fatalf("scrape has no %s", name)
		return 0
	}
	if live, goal := value("bwaver_go_heap_live_bytes"), value("bwaver_go_heap_goal_bytes"); live <= 0 || goal < live {
		t.Errorf("heap live %v, goal %v: want 0 < live <= goal", live, goal)
	}
}

// TestCancelDuringBuildFreesSlot is the mid-build cancellation regression:
// DELETE while the index is under construction aborts the build at the next
// phase boundary — it must not run to completion holding the only pipeline
// slot — and the freed slot immediately serves the next job.
func TestCancelDuringBuildFreesSlot(t *testing.T) {
	refFasta, readsFastq := testDataSmall(t)
	s := openServer(t, Config{MaxConcurrentJobs: 1})
	defer s.Close()
	entered := make(chan struct{})
	proceed := make(chan struct{})
	s.testHookDuringBuild = func(j *Job, ctx context.Context) {
		if j.ID == 1 {
			entered <- struct{}{}
			<-proceed // hold the build until the cancel has landed
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	<-entered // job 1 is inside the build closure, holding the only slot

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/jobs/1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel returned %d", resp.StatusCode)
	}
	close(proceed) // construction starts now, against a canceled context

	deadline := time.Now().Add(5 * time.Second)
	for {
		if j := getJobJSON(t, ts, 1); j.State == string(StateCanceled) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job 1 still %s after cancel during build", getJobJSON(t, ts, 1).State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The slot is free: the same upload builds fresh (the canceled build
	// must not have poisoned the cache) and completes.
	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	s.Wait()
	j := getJobJSON(t, ts, 2)
	if j.State != string(StateDone) {
		t.Fatalf("follow-up job state %s (%s), want done", j.State, j.Error)
	}
	if j.CacheHit {
		t.Error("follow-up job reported a cache hit off a canceled build")
	}
}

// TestCacheCanceledBuilderDoesNotPoisonWaiters exercises the single-flight
// hazard directly: the caller driving a build is canceled while a healthy
// waiter shares its entry. The waiter must not inherit the stranger's
// context error — it retries and becomes the new builder.
func TestCacheCanceledBuilderDoesNotPoisonWaiters(t *testing.T) {
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 3000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.IndexConfig{RRR: rrr.Params{BlockSize: 15, SuperblockFactor: 50}}
	key := core.CacheKey(ref, nil, cfg)
	c := newIndexCache(4)

	builderCtx, cancelBuilder := context.WithCancel(context.Background())
	builderIn := make(chan struct{})
	waiterIn := make(chan struct{})
	var calls int32

	builderErr := make(chan error, 1)
	go func() {
		_, _, err := c.getOrBuild(builderCtx, key, func(ctx context.Context) (*core.Index, error) {
			calls++
			close(builderIn)
			<-waiterIn // the waiter is parked on our entry
			cancelBuilder()
			return nil, ctx.Err()
		})
		builderErr <- err
	}()

	<-builderIn
	waiterDone := make(chan error, 1)
	go func() {
		entry, hit, err := c.getOrBuild(context.Background(), key, func(ctx context.Context) (*core.Index, error) {
			calls++
			return core.BuildIndexCtx(ctx, ref, cfg)
		})
		if err == nil && (entry == nil || entry.ix == nil) {
			err = errors.New("nil entry without error")
		}
		_ = hit
		waiterDone <- err
	}()
	// Park the waiter on the in-flight entry before releasing the builder.
	time.Sleep(20 * time.Millisecond)
	close(waiterIn)

	if err := <-builderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("builder error %v, want context.Canceled", err)
	}
	select {
	case err := <-waiterDone:
		if err != nil {
			t.Fatalf("waiter inherited the builder's fate: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter hung after the builder was canceled")
	}
	if calls != 2 {
		t.Errorf("build ran %d times, want 2 (canceled builder + retrying waiter)", calls)
	}
}

// bwaver_jobs_finished_total counts every terminal transition, not only the
// ends of launched runs: after a done job, an upload canceled before launch
// and a stalled upload swept by the janitor, the counter holds what
// /api/stats counts per terminal state.
func TestJobsFinishedCountsEveryEnd(t *testing.T) {
	refFasta, readsFastq := testDataSmall(t)
	s := openServer(t, Config{UploadTimeout: time.Hour})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	s.Wait()
	create := []byte(`{"backend":"cpu"}`)
	hdr := map[string]string{"Content-Type": "application/json"}
	for id := 2; id <= 3; id++ {
		if code, _, _ := doJSON(t, http.MethodPost, ts.URL+"/api/jobs", create, hdr); code != http.StatusCreated {
			t.Fatalf("create of job %d answered %d", id, code)
		}
	}
	if code, _, _ := doJSON(t, http.MethodDelete, ts.URL+"/api/jobs/2", nil, nil); code != http.StatusOK {
		t.Fatalf("cancel of the upload answered %d", code)
	}
	if n := s.sweepStalledUploads(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatalf("swept %d stalled uploads, want 1", n)
	}

	jobs := getStats(t, ts).Jobs
	if jobs["done"] != 1 || jobs["canceled"] != 1 || jobs["failed"] != 1 {
		t.Fatalf("stats jobs %v, want one done, one canceled, one failed", jobs)
	}
	text := scrapeMetrics(t, ts)
	for _, state := range []JobState{StateDone, StateFailed, StateCanceled} {
		want := fmt.Sprintf("bwaver_jobs_finished_total{state=%q} %d\n", state, jobs[string(state)])
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}
