package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/fastx"
	"bwaver/internal/readsim"
	"bwaver/internal/runner"
)

// openServer is Open for tests: it fails t when the server cannot start.
func openServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// cpuParams are a default exact job's params on the cpu backend.
var cpuParams = JobParams{Backend: "cpu", B: defaultB, SF: defaultSF}

// queueJob admits a job the test drives by hand. It never launches, so the
// drain reference admission holds for the launch is dropped here.
func queueJob(t testing.TB, s *Server, p JobParams, refName string) *Job {
	t.Helper()
	job, _, ae := s.admitJob(jobSpec{JobParams: p}, stateQueued)
	if ae != nil {
		t.Fatal(ae.msg)
	}
	s.mu.Lock()
	job.RefName = refName
	s.mu.Unlock()
	s.wg.Done()
	return job
}

// bytesSpool is a spool in memory holding b.
func bytesSpool(b []byte) *spool {
	sp := &spool{}
	sp.append(b)
	return sp
}

// buildUpload assembles a multipart request body with the given files and
// form fields.
func buildUpload(t *testing.T, fields map[string]string, files map[string][]byte) (*bytes.Buffer, string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for k, v := range fields {
		if err := mw.WriteField(k, v); err != nil {
			t.Fatal(err)
		}
	}
	for name, content := range files {
		fw, err := mw.CreateFormFile(name, name+".txt")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(content); err != nil {
			t.Fatal(err)
		}
	}
	mw.Close()
	return &buf, mw.FormDataContentType()
}

func testData(t testing.TB) (refFasta, readsFastq []byte, reads []readsim.Read) {
	t.Helper()
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 5000, Seed: 9, RepeatFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 50, Length: 40, MappingRatio: 0.6, RevCompFraction: 0.5, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	var fb bytes.Buffer
	fw := fastx.NewWriter(&fb, fastx.FASTA, false)
	if err := fw.Write(&fastx.Record{ID: "testref", Seq: []byte(ref.String())}); err != nil {
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
	return fb.Bytes(), qb.Bytes(), sim
}

func submitJob(t *testing.T, s *Server, ts *httptest.Server, fields map[string]string, files map[string][]byte) string {
	t.Helper()
	body, ctype := buildUpload(t, fields, files)
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Post(ts.URL+"/jobs", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusSeeOther {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit returned %d: %s", resp.StatusCode, b)
	}
	return resp.Header.Get("Location")
}

func TestFullPipelineViaHTTP(t *testing.T) {
	for _, backend := range []string{"cpu", "fpga"} {
		t.Run(backend, func(t *testing.T) {
			refFasta, readsFastq, sim := testData(t)
			s := openServer(t, Config{})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			loc := submitJob(t, s, ts,
				map[string]string{"b": "15", "sf": "50", "backend": backend},
				map[string][]byte{"reference": refFasta, "reads": readsFastq})
			s.Wait()

			// Job page should render as done.
			resp, err := http.Get(ts.URL + loc)
			if err != nil {
				t.Fatal(err)
			}
			page, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if !strings.Contains(string(page), "done") {
				t.Fatalf("job page not done:\n%s", page)
			}
			if !strings.Contains(string(page), "Download results (TSV)") {
				t.Errorf("job page does not offer the TSV download:\n%s", page)
			}

			// Results TSV must agree with the simulated truth.
			resp, err = http.Get(ts.URL + loc + "/results")
			if err != nil {
				t.Fatal(err)
			}
			tsv, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("results status %d: %s", resp.StatusCode, tsv)
			}
			lines := strings.Split(strings.TrimSpace(string(tsv)), "\n")
			if len(lines) != len(sim)+1 {
				t.Fatalf("%d result lines, want %d", len(lines), len(sim)+1)
			}
			byID := map[string]string{}
			for _, line := range lines[1:] {
				fields := strings.Split(line, "\t")
				byID[fields[0]] = fields[1]
			}
			for _, r := range sim {
				wantMapped := fmt.Sprintf("%t", r.Origin >= 0)
				if byID[r.ID] != wantMapped {
					t.Errorf("read %s: mapped=%s, want %s", r.ID, byID[r.ID], wantMapped)
				}
			}
		})
	}
}

func TestGzippedUploads(t *testing.T) {
	refFasta, readsFastq, _ := testData(t)
	gzipped := func(b []byte) []byte {
		var buf bytes.Buffer
		gw := gzip.NewWriter(&buf)
		gw.Write(b)
		gw.Close()
		return buf.Bytes()
	}
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	loc := submitJob(t, s, ts,
		map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": gzipped(refFasta), "reads": gzipped(readsFastq)})
	s.Wait()
	resp, err := http.Get(ts.URL + loc + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gzipped job failed: %d", resp.StatusCode)
	}
}

func TestSubmitValidation(t *testing.T) {
	refFasta, readsFastq, _ := testData(t)
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	post := func(fields map[string]string, files map[string][]byte) int {
		body, ctype := buildUpload(t, fields, files)
		resp, err := client.Post(ts.URL+"/jobs", ctype, body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	if code := post(map[string]string{"b": "99"}, map[string][]byte{"reference": refFasta, "reads": readsFastq}); code != http.StatusBadRequest {
		t.Errorf("invalid b accepted: %d", code)
	}
	if code := post(map[string]string{"b": "abc"}, map[string][]byte{"reference": refFasta, "reads": readsFastq}); code != http.StatusBadRequest {
		t.Errorf("non-numeric b accepted: %d", code)
	}
	if code := post(map[string]string{"backend": "gpu"}, map[string][]byte{"reference": refFasta, "reads": readsFastq}); code != http.StatusBadRequest {
		t.Errorf("bad backend accepted: %d", code)
	}
	if code := post(nil, map[string][]byte{"reads": readsFastq}); code != http.StatusBadRequest {
		t.Errorf("missing reference accepted: %d", code)
	}
	if code := post(nil, map[string][]byte{"reference": refFasta}); code != http.StatusBadRequest {
		t.Errorf("missing reads accepted: %d", code)
	}
	// A garbage reference parses on the job goroutine: the submission is
	// accepted (303 redirect to the job page) and the failure lands in the
	// job's failed state — see TestSubmitParseFailureFailsJob.
	if code := post(nil, map[string][]byte{"reference": []byte("garbage"), "reads": readsFastq}); code != http.StatusSeeOther {
		t.Errorf("garbage reference returned %d, want 303 (async parse failure)", code)
	}
	s.Wait()
}

func TestJobNotFound(t *testing.T) {
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/jobs/999")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job returned %d", resp.StatusCode)
	}
	resp2, err := http.Get(ts.URL + "/jobs/abc")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("bad job id returned %d", resp2.StatusCode)
	}
}

func TestResultsBeforeDone(t *testing.T) {
	s := openServer(t, Config{})
	job := queueJob(t, s, cpuParams, "x")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%d/results", ts.URL, job.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("queued job results returned %d, want 409", resp.StatusCode)
	}
}

func TestHomeListsJobs(t *testing.T) {
	s := openServer(t, Config{})
	queueJob(t, s, cpuParams, "refA")
	queueJob(t, s, JobParams{Backend: "fpga", B: defaultB, SF: defaultSF}, "refB")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"refA", "refB", "BWaveR"} {
		if !strings.Contains(string(page), want) {
			t.Errorf("home page missing %q", want)
		}
	}
}

func TestDemoJob(t *testing.T) {
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Get(ts.URL + "/demo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusSeeOther {
		t.Fatalf("demo returned %d", resp.StatusCode)
	}
	s.Wait()
	loc := resp.Header.Get("Location")
	res, err := http.Get(ts.URL + loc + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("demo results returned %d", res.StatusCode)
	}
}

// A read's positions cell is ascending, whatever order the suffix array
// yields them in, and contig-relative when the reference has several records.
func TestJoinPositions(t *testing.T) {
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 200, Seed: 45})
	if err != nil {
		t.Fatal(err)
	}
	// One 10-mer at 10, 95 (across the record boundary at 100), 150 and 180.
	for _, p := range []int{95, 150, 180} {
		copy(ref[p:p+10], ref[10:20])
	}
	read := ref[10:20].Clone()
	for _, c := range []struct {
		names []string
		lens  []int
		want  string
	}{
		{[]string{"ref"}, []int{200}, "10,95,150,180"},
		{[]string{"a", "b"}, []int{100, 100}, "a:10,boundary@95,b:50,b:80"},
	} {
		contigs, err := core.NewContigSet(c.names, c.lens)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := core.BuildIndex(ref, core.IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.SetContigs(contigs); err != nil {
			t.Fatal(err)
		}
		s := openServer(t, Config{})
		job := queueJob(t, s, cpuParams, "x")
		src := &sliceSource{ids: []string{"r"}, reads: []dna.Seq{read}, batch: 1}
		if _, err := s.mapJob(context.Background(), job, &cacheEntry{ix: ix}, runner.NewReads(src, nil)); err != nil {
			t.Fatal(err)
		}
		row := strings.Split(strings.TrimSpace(string(readSpool(t, job.results))), "\n")[1]
		if got := strings.Split(row, "\t")[3]; got != c.want {
			t.Errorf("%v: fw_positions = %q, want %q", c.names, got, c.want)
		}
	}
}

func TestJSONAPI(t *testing.T) {
	refFasta, readsFastq, sim := testData(t)
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	loc := submitJob(t, s, ts,
		map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	s.Wait()

	resp, err := http.Get(ts.URL + "/api" + loc)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var payload struct {
		State   string  `json:"state"`
		Reads   int     `json:"reads"`
		Mapped  int     `json:"mapped"`
		Backend string  `json:"backend"`
		MapMs   float64 `json:"map_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.State != "done" || payload.Reads != len(sim) || payload.Backend != "cpu" {
		t.Errorf("payload wrong: %+v", payload)
	}
	wantMapped := 0
	for _, r := range sim {
		if r.Origin >= 0 {
			wantMapped++
		}
	}
	if payload.Mapped != wantMapped {
		t.Errorf("mapped %d, want %d", payload.Mapped, wantMapped)
	}

	// The list endpoint must include the job.
	listResp, err := http.Get(ts.URL + "/api/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var list []struct {
		ID int `json:"id"`
	}
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != 1 {
		t.Errorf("job list wrong: %+v", list)
	}

	// Missing job: 404 JSON.
	missing, err := http.Get(ts.URL + "/api/jobs/99")
	if err != nil {
		t.Fatal(err)
	}
	defer missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Errorf("missing job returned %d", missing.StatusCode)
	}
}

func TestConcurrentJobsBounded(t *testing.T) {
	refFasta, readsFastq, _ := testData(t)
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Fire more jobs than the concurrency limit; all must finish correctly.
	const jobs = 6
	for i := 0; i < jobs; i++ {
		submitJob(t, s, ts,
			map[string]string{"backend": "cpu"},
			map[string][]byte{"reference": refFasta, "reads": readsFastq})
	}
	s.Wait()
	resp, err := http.Get(ts.URL + "/api/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []struct {
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != jobs {
		t.Fatalf("%d jobs listed, want %d", len(list), jobs)
	}
	for i, j := range list {
		if j.State != "done" {
			t.Errorf("job %d state %q, want done", i, j.State)
		}
	}
}

func TestMismatchJob(t *testing.T) {
	// Reads with one substitution each: exact jobs miss them, a mismatch
	// budget of 1 maps them.
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 6000, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 30, Length: 50, MappingRatio: 1, ErrorRate: 0.02, Seed: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	var fb bytes.Buffer
	fw := fastx.NewWriter(&fb, fastx.FASTA, false)
	fw.Write(&fastx.Record{ID: "ref", Seq: []byte(ref.String())})
	fw.Close()
	var qb bytes.Buffer
	qw := fastx.NewWriter(&qb, fastx.FASTQ, false)
	for _, r := range sim {
		qw.Write(&fastx.Record{ID: r.ID, Seq: []byte(r.Seq.String())})
	}
	qw.Close()

	for _, backend := range []string{"cpu", "fpga"} {
		s := openServer(t, Config{})
		ts := httptest.NewServer(s.Handler())
		loc := submitJob(t, s, ts,
			map[string]string{"backend": backend, "mismatches": "2"},
			map[string][]byte{"reference": fb.Bytes(), "reads": qb.Bytes()})
		s.Wait()
		resp, err := http.Get(ts.URL + loc + "/results")
		if err != nil {
			t.Fatal(err)
		}
		tsv, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		ts.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: results status %d: %s", backend, resp.StatusCode, tsv)
		}
		lines := strings.Split(strings.TrimSpace(string(tsv)), "\n")
		if !strings.Contains(lines[0], "best_mismatches") {
			t.Fatalf("%s: approx TSV header wrong: %q", backend, lines[0])
		}
		byID := map[string][]string{}
		for _, line := range lines[1:] {
			f := strings.Split(line, "\t")
			byID[f[0]] = f
		}
		for _, r := range sim {
			if r.Errors > 2 {
				continue
			}
			f := byID[r.ID]
			if f == nil || f[1] != "true" {
				t.Errorf("%s: read %s with %d errors not mapped: %v", backend, r.ID, r.Errors, f)
			}
		}
	}
	// Budget out of range rejected.
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, ctype := buildUpload(t, map[string]string{"mismatches": "9"},
		map[string][]byte{"reference": fb.Bytes(), "reads": qb.Bytes()})
	resp, err := http.Post(ts.URL+"/jobs", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("excessive budget accepted: %d", resp.StatusCode)
	}
}

func TestMultiContigServerResults(t *testing.T) {
	g1, _ := readsim.Genome(readsim.GenomeConfig{Length: 2000, Seed: 16})
	g2, _ := readsim.Genome(readsim.GenomeConfig{Length: 1500, Seed: 17})
	var fb bytes.Buffer
	fw := fastx.NewWriter(&fb, fastx.FASTA, false)
	fw.Write(&fastx.Record{ID: "chrA", Seq: []byte(g1.String())})
	fw.Write(&fastx.Record{ID: "chrB", Seq: []byte(g2.String())})
	fw.Close()
	var qb bytes.Buffer
	qw := fastx.NewWriter(&qb, fastx.FASTQ, false)
	qw.Write(&fastx.Record{ID: "inB", Seq: []byte(g2[300:350].String())})
	qw.Close()

	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	loc := submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": fb.Bytes(), "reads": qb.Bytes()})
	s.Wait()
	resp, err := http.Get(ts.URL + loc + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	tsv, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(tsv), "chrB:300") {
		t.Errorf("contig-relative position missing:\n%s", tsv)
	}
}

// Wait blocks until all running jobs finish.
func (s *Server) Wait() { s.wg.Wait() }
