package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"bwaver/internal/core"
	"bwaver/internal/fastx"
	"bwaver/internal/fpga"
	"bwaver/internal/readsim"
)

// memTestData renders a reference plus an interleaved paired-end read set as
// the FASTA/FASTQ wire forms a submission carries.
func memTestData(t *testing.T) (refFasta, readsFastq []byte, readCount int) {
	t.Helper()
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 20000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := readsim.SimulatePairs(ref, readsim.PairConfig{
		Count: 25, ReadLength: 70, InsertMean: 250, InsertStdDev: 25,
		MappingRatio: 0.9, ErrorRate: 0.01, Seed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	var fb bytes.Buffer
	fw := fastx.NewWriter(&fb, fastx.FASTA, false)
	if err := fw.Write(&fastx.Record{ID: "memref", Seq: []byte(ref.String())}); err != nil {
		t.Fatal(err)
	}
	fw.Close()
	var qb bytes.Buffer
	qw := fastx.NewWriter(&qb, fastx.FASTQ, false)
	for _, p := range pairs {
		if err := qw.Write(&fastx.Record{ID: p.ID + "/1", Seq: []byte(p.R1.String())}); err != nil {
			t.Fatal(err)
		}
		if err := qw.Write(&fastx.Record{ID: p.ID + "/2", Seq: []byte(p.R2.String())}); err != nil {
			t.Fatal(err)
		}
	}
	qw.Close()
	return fb.Bytes(), qb.Bytes(), 2 * len(pairs)
}

// fetchSAM downloads a finished job's results and asserts the SAM shape:
// header first, one record line per read.
func fetchSAM(t *testing.T, ts *httptest.Server, loc string, readCount int) string {
	t.Helper()
	resp, err := http.Get(ts.URL + loc + "/results")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "sam") {
		t.Errorf("results content type %q, want SAM", ct)
	}
	text := string(body)
	if !strings.HasPrefix(text, "@HD\t") {
		t.Fatalf("results do not start with a SAM header:\n%.200s", text)
	}
	var headers, records int
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "@") {
			headers++
			continue
		}
		records++
		if fields := strings.Split(line, "\t"); len(fields) < 11 {
			t.Fatalf("SAM record has %d fields: %q", len(fields), line)
		}
	}
	if records != readCount {
		t.Fatalf("%d SAM records, want %d", records, readCount)
	}
	if headers < 3 { // @HD, @SQ, @PG
		t.Errorf("only %d header lines", headers)
	}
	return text
}

// TestMemJobEndToEnd runs a mode=mem-pe job on the faulted FPGA farm and on
// the CPU baseline and demands bit-identical SAM, a populated stream, and
// populated pipeline counters.
func TestMemJobEndToEnd(t *testing.T) {
	refFasta, readsFastq, readCount := memTestData(t)
	plan, err := fpga.ParseFaultPlan("seed=7,query=0.25,kernel=0.15")
	if err != nil {
		t.Fatal(err)
	}
	s := openServer(t, Config{
		Devices: 3, FaultPlan: plan, VerifyStride: 4, StreamBatch: 16,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	fpgaLoc := submitJob(t, s, ts,
		map[string]string{"backend": "fpga", "mode": "mem-pe"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	cpuLoc := submitJob(t, s, ts,
		map[string]string{"backend": "cpu", "mode": "mem-pe"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	s.Wait()

	fpgaSAM := fetchSAM(t, ts, fpgaLoc, readCount)
	cpuSAM := fetchSAM(t, ts, cpuLoc, readCount)
	if fpgaSAM != cpuSAM {
		t.Error("FPGA and CPU backends produced different SAM output")
	}
	if !strings.Contains(fpgaSAM, "\t=\t") {
		t.Error("no record carries a mate reference (RNEXT =)")
	}

	// The job JSON carries the mode and a mapped count.
	id := strings.TrimPrefix(fpgaLoc, "/jobs/")
	resp, err := http.Get(ts.URL + "/api/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		State  string `json:"state"`
		Mode   string `json:"mode"`
		Mapped int    `json:"mapped"`
		Reads  int    `json:"reads"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if job.State != "done" || job.Mode != "mem-pe" {
		t.Fatalf("job = %+v", job)
	}
	if job.Mapped < readCount*8/10 {
		t.Errorf("only %d/%d reads mapped", job.Mapped, job.Reads)
	}

	// The NDJSON stream replays one row per read.
	req, _ := http.NewRequest("GET", ts.URL+"/api/jobs/"+id+"/stream", nil)
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	streamBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var rows, mapped int
	for _, line := range strings.Split(strings.TrimSpace(string(streamBody)), "\n") {
		var row struct {
			Event string `json:"event"`
			Read  string `json:"read"`
			Bool  bool   `json:"mapped"`
			CIGAR string `json:"cigar"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		if row.Event != "" {
			continue // terminal summary
		}
		rows++
		if row.Bool {
			mapped++
			if row.CIGAR == "" {
				t.Errorf("mapped row %s has no CIGAR", row.Read)
			}
		}
	}
	if rows != readCount {
		t.Errorf("stream holds %d rows, want %d", rows, readCount)
	}
	if mapped != job.Mapped {
		t.Errorf("stream mapped count %d, job reports %d", mapped, job.Mapped)
	}

	// /api/stats exposes the aggregate pipeline counters.
	resp, err = http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Mem struct {
			Reads      int `json:"reads"`
			Seeds      int `json:"seeds"`
			Extensions int `json:"extensions"`
			Cells      int `json:"dp_cells"`
		} `json:"mem"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Mem.Reads != 2*readCount {
		t.Errorf("stats cover %d reads, want %d (both jobs)", stats.Mem.Reads, 2*readCount)
	}
	if stats.Mem.Seeds == 0 || stats.Mem.Extensions == 0 || stats.Mem.Cells == 0 {
		t.Errorf("pipeline counters empty: %+v", stats.Mem)
	}

	// /metrics exports the same counters.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{"bwaver_mem_reads_total", "bwaver_mem_seeds_total", "bwaver_mem_dp_cells_total"} {
		if !strings.Contains(string(metrics), name) {
			t.Errorf("metric %s not exported", name)
		}
	}
}

// TestMemJobSingleEnd maps the same reads without pairing: records must not
// carry pairing flags.
func TestMemJobSingleEnd(t *testing.T) {
	refFasta, readsFastq, readCount := memTestData(t)
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	loc := submitJob(t, s, ts,
		map[string]string{"backend": "cpu", "mode": "mem"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	s.Wait()
	// The job page names the download by the format /results serves.
	resp, err := http.Get(ts.URL + loc)
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(page), "Download results (SAM)") {
		t.Errorf("mem job page does not offer the SAM download:\n%s", page)
	}
	text := fetchSAM(t, ts, loc, readCount)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "@") {
			continue
		}
		fields := strings.Split(line, "\t")
		flag, err := strconv.Atoi(fields[1])
		if err != nil {
			t.Fatalf("bad flag %q", fields[1])
		}
		if flag&0x1 != 0 {
			t.Fatalf("single-end record carries the paired flag: %q", line)
		}
	}
}

// TestCacheBytesCountMemState: the server builds its indexes with a sampled
// suffix array, and /api/stats charges a cached index the host bytes it
// holds when asked, so a mem job on the index an exact job cached grows
// cache.size_bytes by at least the reverse prefix table EnsureMem builds
// beside the reverse direction and the text — a 4-byte bound per DNA string
// of k symbols and a terminal, k = ⌊log₄ 20 000⌋ = 7; the forward table is
// the exact path's — to the index's HostBytes.
func TestCacheBytesCountMemState(t *testing.T) {
	refFasta, readsFastq, _ := memTestData(t)
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	files := map[string][]byte{"reference": refFasta, "reads": readsFastq}
	submitJob(t, s, ts, map[string]string{"backend": "cpu"}, files)
	s.Wait()
	exact := getStats(t, ts).Cache
	submitJob(t, s, ts, map[string]string{"backend": "cpu", "mode": "mem-pe"}, files)
	s.Wait()
	mem := getStats(t, ts).Cache
	const reverseTable = 4 * (1<<(2*7) + 1)
	if mem.Entries != 1 || mem.SizeBytes-exact.SizeBytes < reverseTable {
		t.Errorf("cache size_bytes %d after the exact job, %d after the mem job (%d entries); want growth of at least the %d-byte reverse table",
			exact.SizeBytes, mem.SizeBytes, mem.Entries, reverseTable)
	}
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	for _, el := range s.cache.entries {
		if host := el.Value.(*cacheEntry).ix.HostBytes(); mem.SizeBytes != host {
			t.Errorf("cache size_bytes %d, the cached index holds %d", mem.SizeBytes, host)
		}
		if cfg := el.Value.(*cacheEntry).ix.Config(); cfg.Locate != core.LocateSampled || cfg.SampleRate != servedSampleRate {
			t.Errorf("served index built %v at rate %d, want %v at %d", cfg.Locate, cfg.SampleRate, core.LocateSampled, servedSampleRate)
		}
	}
}

// TestMemModeValidation exercises the submission-parameter gate.
func TestMemModeValidation(t *testing.T) {
	refFasta, readsFastq, _ := memTestData(t)
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	submit := func(fields map[string]string) int {
		t.Helper()
		body, ctype := buildUpload(t, fields,
			map[string][]byte{"reference": refFasta, "reads": readsFastq})
		resp, err := http.Post(ts.URL+"/jobs", ctype, body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := submit(map[string]string{"mode": "bwa"}); code != http.StatusBadRequest {
		t.Errorf("unknown mode accepted: %d", code)
	}
	if code := submit(map[string]string{"mode": "mem", "mismatches": "2"}); code != http.StatusBadRequest {
		t.Errorf("mode=mem with a mismatch budget accepted: %d", code)
	}
	s.Wait()
}
