package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"io"
	"mime/multipart"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The served workload talks to a real bwaver-server child over loopback HTTP
// only: POST /jobs (multipart) then GET /api/jobs/{id}/stream (NDJSON) to the
// terminal event, closed loop.

const (
	kindExact  = "exact"
	kindMem    = "mem-pe"
	kindCold   = "cold"
	kindFPGA   = "fpga"
	kindVia    = "gateway"
	kindDirect = "direct"

	clients = 2 // closed-loop client connections, one per core of the reference host

	jobTimeout = 120 * time.Second

	// The cluster rung: how often workers re-announce themselves and how long
	// the harness waits for the gateway to see both.
	clusterHeartbeat    = "200ms"
	clusterReadyTimeout = 60 * time.Second
)

// servedSizes: job counts are fixed, not the duration, so percentiles always
// have the same sample count; exact jobs never go below 110 so that p90 keeps
// ten samples beyond it. The warm phase is blocks of blockMem mem-pe jobs
// followed by blockExact exact jobs, every block the same mix.
type servedSizes struct {
	bases                int // 0 = E. coli's length
	blocks               int
	blockExact, blockMem int
	exactReads, memPairs int
	exactSets, memSets   int // distinct read sets the job sequence cycles through
	coldJobs, fpgaJobs   int
	clusterJobs, refJobs int
}

func (c runConfig) servedSizes() servedSizes {
	if c.scale == scaleSmoke {
		return servedSizes{bases: 100_000, blocks: 2, blockExact: 3, blockMem: 1, exactReads: 500, memPairs: 100,
			exactSets: 2, memSets: 1, coldJobs: 2, fpgaJobs: 2, clusterJobs: 3, refJobs: 4}
	}
	scale := c.seconds / runSeconds
	if scale < 1 {
		scale = 1
	}
	return servedSizes{blocks: int(11 * scale), blockExact: 10, blockMem: 2, exactReads: 5000, memPairs: 300,
		exactSets: 8, memSets: 4, coldJobs: 5, fpgaJobs: 10, clusterJobs: 20, refJobs: 24}
}

// ---------------------------------------------------------------- server child

type serverProc struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
}

func buildServer(cfg runConfig) (string, error) {
	bin := filepath.Join(cfg.outDir, "bwaver-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/bwaver-server")
	cmd.Dir = cfg.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building bwaver-server: %v\n%s", err, out)
	}
	return bin, nil
}

// startServer launches the binary on an ephemeral loopback port and waits for
// the banner that carries the bound address.
func startServer(bin, logPath string, args ...string) (*serverProc, error) {
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = logFile
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, log: logFile}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if line := sc.Text(); strings.Contains(line, "listening on ") {
				select {
				case addr <- line[strings.LastIndex(line, " ")+1:]:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		p.base = "http://" + a
		return p, nil
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not print its listen address; see %s", bin, logPath)
	}
}

// stop ends the child and waits until it has exited: SIGTERM (nothing is in
// flight, so the drain is immediate), SIGKILL if that takes too long.
func (p *serverProc) stop() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
	p.log.Close()
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

func getJSON(url string, into any) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// ---------------------------------------------------------------- jobs

// jobInput is one distinct upload: a pre-rendered multipart body plus what the
// harness needs to check the rows that come back.
type jobInput struct {
	kind        string
	ref         *reference
	reads       *readSet
	body        []byte
	contentType string
}

func newJobInput(kind string, ref *reference, refFasta []byte, reads *readSet, fields ...[2]string) (*jobInput, error) {
	fastq, err := reads.fastq()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, f := range fields {
		if err := mw.WriteField(f[0], f[1]); err != nil {
			return nil, err
		}
	}
	for _, part := range []struct {
		name string
		data []byte
	}{{"reference", refFasta}, {"reads", fastq}} {
		fw, err := mw.CreateFormFile(part.name, part.name+".txt")
		if err != nil {
			return nil, err
		}
		if _, err := fw.Write(part.data); err != nil {
			return nil, err
		}
	}
	if err := mw.Close(); err != nil {
		return nil, err
	}
	return &jobInput{kind: kind, ref: ref, reads: reads, body: buf.Bytes(), contentType: mw.FormDataContentType()}, nil
}

// jobRecord is what one job looked like from the client.
type jobRecord struct {
	in       *jobInput
	kind     string
	id       int
	start    time.Time
	submit   time.Duration // POST /jobs
	firstRow time.Duration // submit start -> first result row
	total    time.Duration // submit start -> terminal event
	rows     int
	crc      uint64 // of the row bytes, to compare repeats of one input
	body     []byte // the rows, kept for the first job of each input only
	err      error
	reported struct {
		ParseMs  float64 `json:"parse_ms"`
		BuildMs  float64 `json:"build_ms"`
		MapMs    float64 `json:"map_ms"`
		CacheHit bool    `json:"cache_hit"`
		State    string  `json:"state"`
	}
}

var streamCRC = crc64.MakeTable(crc64.ECMA)

// runJob submits one job and reads its stream to the terminal event. keepBody
// keeps the rows for checking; report fetches the program-reported phases
// afterwards (outside the timed interval).
func runJob(base string, in *jobInput, kind string, keepBody, report bool) *jobRecord {
	rec := &jobRecord{in: in, kind: kind, start: time.Now()}
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(in.body))
	if err != nil {
		rec.err = err
		return rec
	}
	req.Header.Set("Content-Type", in.contentType)
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		rec.err = fmt.Errorf("POST /jobs: %w", err)
		return rec
	}
	var accepted struct {
		ID int `json:"id"`
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.submit = time.Since(rec.start)
	if resp.StatusCode != http.StatusOK {
		rec.err = fmt.Errorf("POST /jobs: status %d: %.200s", resp.StatusCode, raw)
		return rec
	}
	if err := json.Unmarshal(raw, &accepted); err != nil || accepted.ID == 0 {
		rec.err = fmt.Errorf("POST /jobs: no job id in %.200s", raw)
		return rec
	}
	rec.id = accepted.ID

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/api/jobs/%d/stream", base, rec.id), nil)
	if err != nil {
		rec.err = err
		return rec
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		rec.err = fmt.Errorf("GET stream: %w", err)
		return rec
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rec.err = fmt.Errorf("GET stream: status %d", resp.StatusCode)
		return rec
	}
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	terminal := ""
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if bytes.HasPrefix(line, []byte(`{"event":`)) {
				terminal = string(line)
				break
			}
			if rec.rows == 0 {
				rec.firstRow = time.Since(rec.start)
			}
			rec.rows++
			rec.crc = crc64.Update(rec.crc, streamCRC, line)
			if keepBody {
				rec.body = append(rec.body, line...)
			}
		}
		if err != nil {
			rec.err = fmt.Errorf("stream of job %d ended before a terminal event: %w", rec.id, err)
			return rec
		}
	}
	rec.total = time.Since(rec.start)
	if !strings.HasPrefix(terminal, `{"event":"done"`) {
		rec.err = fmt.Errorf("job %d ended with %s", rec.id, strings.TrimSpace(terminal))
		return rec
	}
	if rec.rows != in.reads.n() {
		rec.err = fmt.Errorf("job %d streamed %d rows for %d reads", rec.id, rec.rows, in.reads.n())
		return rec
	}
	if report {
		if err := getJSON(fmt.Sprintf("%s/api/jobs/%d", base, rec.id), &rec.reported); err != nil {
			rec.err = fmt.Errorf("job %d status: %w", rec.id, err)
		}
	}
	return rec
}

// trace records a finished job as a span tree: job.<kind> with the three
// client-side phases and, when fetched, the program-reported ones.
func (rec *jobRecord) trace(tr *tracer) {
	if tr == nil || rec.err != nil {
		return
	}
	id := tr.add(0, "job."+rec.kind, rec.start, rec.start.Add(rec.total), int64(rec.rows))
	tr.add(id, "server.submit", rec.start, rec.start.Add(rec.submit), int64(len(rec.in.body)))
	tr.add(id, "server.wait_first_row", rec.start.Add(rec.submit), rec.start.Add(rec.firstRow), 1)
	tr.add(id, "server.stream_drain", rec.start.Add(rec.firstRow), rec.start.Add(rec.total), int64(rec.rows))
	if rec.reported.State != "" {
		tr.record(id, "reported.parse", time.Duration(rec.reported.ParseMs*float64(time.Millisecond)), 1)
		tr.record(id, "reported.build", time.Duration(rec.reported.BuildMs*float64(time.Millisecond)), 1)
		tr.record(id, "reported.map", time.Duration(rec.reported.MapMs*float64(time.Millisecond)), 1)
	}
}

// closedLoop runs the job sequence with n clients: each sends its next job
// only after the previous one's terminal event. The first job of every input
// not yet in kept keeps its rows (kept may be nil: keep none).
func closedLoop(base string, seq []*jobInput, n int, report bool, kept map[*jobInput]bool) ([]*jobRecord, time.Duration) {
	out := make([]*jobRecord, len(seq))
	keep := make([]bool, len(seq))
	for i, in := range seq {
		if kept != nil && !kept[in] {
			kept[in], keep[i] = true, true
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				out[i] = runJob(base, seq[i], seq[i].kind, keep[i], report)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

type exactRowJSON struct {
	Read        string `json:"read"`
	FwCount     int    `json:"fw_count"`
	FwPositions string `json:"fw_positions"`
	RcCount     int    `json:"rc_count"`
	RcPositions string `json:"rc_positions"`
}

type memRowJSON struct {
	Read   string `json:"read"`
	Mapped bool   `json:"mapped"`
	Flag   int    `json:"flag"`
	Pos    int    `json:"pos"`
	MapQ   int    `json:"mapq"`
	CIGAR  string `json:"cigar"`
	TLen   int    `json:"tlen"`
	Score  int    `json:"score"`
	NM     int    `json:"nm"`
}

func (m memRowJSON) fields() memRowFields {
	return memRowFields{Mapped: m.Mapped, Flag: m.Flag, Pos: m.Pos, MapQ: m.MapQ, CIGAR: m.CIGAR, TLen: m.TLen, Score: m.Score, NM: m.NM}
}

// rowCheck is the outcome of checking one input's rows against the reference
// they were simulated from.
type rowCheck struct {
	failed           int
	first            string
	correct, planted int
}

// checkRows verifies the kept rows of a job against ground truth: every
// position against the reference, every planted read against its origin.
func checkRows(rec *jobRecord) rowCheck {
	var out rowCheck
	out.planted = rec.in.reads.planted()
	lines := bytes.Split(bytes.TrimRight(rec.body, "\n"), []byte("\n"))
	for i, line := range lines {
		var why string
		var correct bool
		if rec.in.reads.paired {
			var row memRowJSON
			if err := json.Unmarshal(line, &row); err != nil {
				why = "bad row: " + err.Error()
			} else {
				why, correct = checkMemRow(rec.in.ref, rec.in.reads, i, row.Read, row.fields())
			}
		} else {
			var row exactRowJSON
			if err := json.Unmarshal(line, &row); err != nil {
				why = "bad row: " + err.Error()
			} else {
				why, correct = checkExactRow(rec.in.ref, rec.in.reads, i, row.Read, row.FwCount, row.FwPositions, row.RcCount, row.RcPositions)
			}
		}
		if why != "" {
			out.failed++
			if out.first == "" {
				out.first = fmt.Sprintf("job %d row %d: %s", rec.id, i+1, why)
			}
		}
		if correct {
			out.correct++
		}
	}
	return out
}

// verifyJobs folds a phase's jobs into the result: failed jobs, then the rows
// of the first job of each input against ground truth, then every repeat of
// an input against the first one's checksum. It returns correct and planted
// read counts over all jobs.
func verifyJobs(res *result, phase string, recs []*jobRecord) (correct, planted int) {
	jobFailed, firstErr := 0, ""
	checks := map[*jobInput]rowCheck{}
	crcs := map[*jobInput]uint64{}
	for _, rec := range recs {
		if rec.err != nil {
			jobFailed++
			if firstErr == "" {
				firstErr = rec.err.Error()
			}
			continue
		}
		if rec.body != nil {
			checks[rec.in] = checkRows(rec)
			crcs[rec.in] = rec.crc
		}
	}
	res.check(phase+" jobs", len(recs), jobFailed, firstErr)
	for in, c := range checks {
		res.check(phase+" rows vs reference", in.reads.n(), c.failed, c.first)
	}
	differ, firstDiffer := 0, ""
	for _, rec := range recs {
		if rec.err != nil {
			continue
		}
		c, ok := checks[rec.in]
		if !ok {
			continue // the input's first job failed and is already counted
		}
		if rec.crc != crcs[rec.in] {
			differ++
			if firstDiffer == "" {
				firstDiffer = fmt.Sprintf("job %d streamed different rows than the first job of the same input", rec.id)
			}
			continue
		}
		correct += c.correct
		planted += c.planted
	}
	res.check(phase+" repeat determinism", len(recs)-jobFailed, differ, firstDiffer)
	return correct, planted
}

// latencies collects a duration of every successful job of a kind, in s.
func latencies(recs []*jobRecord, kind string, pick func(*jobRecord) time.Duration) []float64 {
	var out []float64
	for _, r := range recs {
		if r.err == nil && r.kind == kind {
			out = append(out, pick(r).Seconds())
		}
	}
	return out
}

func jobTotal(r *jobRecord) time.Duration    { return r.total }
func jobFirstRow(r *jobRecord) time.Duration { return r.firstRow }

// servedTraceOverhead prices the only tracing this workload has, the
// client-side spans and the status fetch behind the reported ones: the same
// jobs in alternating blocks with and without them, as a percentage of the
// untraced wall time.
func servedTraceOverhead(base string, jobs []*jobInput) float64 {
	const block = 6
	var plain, traced time.Duration
	scratch := newTracer("overhead")
	for lo := 0; lo+2*block <= len(jobs) || lo == 0; lo += 2 * block {
		a := jobs[lo:min(lo+block, len(jobs))]
		_, d := closedLoop(base, a, clients, false, nil)
		plain += d
		recs, d := closedLoop(base, a, clients, true, nil)
		traced += d
		for _, r := range recs {
			r.trace(scratch)
		}
	}
	return (traced.Seconds()/plain.Seconds() - 1) * 100
}

// ---------------------------------------------------------------- the workload

func runServed(cfg runConfig) (*result, error) {
	res := newResult(cfg)
	tr := cfg.tracer()
	sz := cfg.servedSizes()
	stateDir := filepath.Join(cfg.outDir, "state")
	if err := os.RemoveAll(stateDir); err != nil {
		return nil, err
	}

	setupStart := time.Now()
	hot, err := newReference("ecoli", cfg.seed, sz.bases)
	if err != nil {
		return nil, err
	}
	res.pin(cfg, "reference", hot.digest())
	hotFasta, err := hot.fasta("hot")
	if err != nil {
		return nil, err
	}
	cpu := [2]string{"backend", "cpu"}
	var exactIn, memIn []*jobInput
	for i := 0; i < sz.exactSets; i++ {
		reads, err := simulateExact(hot, sz.exactReads, readLength, cfg.seed*1000+int64(i))
		if err != nil {
			return nil, err
		}
		res.pin(cfg, fmt.Sprintf("exact-reads-%d", i), reads.digest())
		in, err := newJobInput(kindExact, hot, hotFasta, reads, cpu)
		if err != nil {
			return nil, err
		}
		exactIn = append(exactIn, in)
	}
	for i := 0; i < sz.memSets; i++ {
		reads, err := simulatePairs(hot, sz.memPairs, mateLength, cfg.seed*1000+int64(i))
		if err != nil {
			return nil, err
		}
		res.pin(cfg, fmt.Sprintf("mem-pairs-%d", i), reads.digest())
		in, err := newJobInput(kindMem, hot, hotFasta, reads, cpu, [2]string{"mode", "mem-pe"})
		if err != nil {
			return nil, err
		}
		memIn = append(memIn, in)
	}
	var coldIn []*jobInput
	for i := 1; i <= sz.coldJobs; i++ {
		ref, err := newReference("ecoli", cfg.seed+int64(i), sz.bases)
		if err != nil {
			return nil, err
		}
		res.pin(cfg, fmt.Sprintf("cold-reference-%d", i), ref.digest())
		fasta, err := ref.fasta(fmt.Sprintf("cold%d", i))
		if err != nil {
			return nil, err
		}
		reads, err := simulateExact(ref, sz.exactReads, readLength, cfg.seed+int64(i))
		if err != nil {
			return nil, err
		}
		in, err := newJobInput(kindCold, ref, fasta, reads, cpu)
		if err != nil {
			return nil, err
		}
		coldIn = append(coldIn, in)
	}
	// The warm sequence: identical blocks, the mem-pe jobs first so that both
	// clients end a block on short jobs; read sets are drawn round-robin.
	var seq []*jobInput
	for b, e, m := 0, 0, 0; b < sz.blocks; b++ {
		for i := 0; i < sz.blockMem; i, m = i+1, m+1 {
			seq = append(seq, memIn[m%len(memIn)])
		}
		for i := 0; i < sz.blockExact; i, e = i+1, e+1 {
			seq = append(seq, exactIn[e%len(exactIn)])
		}
	}
	blockJobs := sz.blockMem + sz.blockExact

	bin, err := buildServer(cfg)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(bin, filepath.Join(cfg.outDir, "server.log"),
		"-state-dir", stateDir, "-max-jobs", "2", "-rate-limit", "0")
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	// Warm-up: one job of each mode on the hot reference, so the index and
	// its seed-and-extend state are cached before anything is timed.
	warmup := []*jobRecord{
		runJob(srv.base, exactIn[0], kindExact, true, false),
		runJob(srv.base, memIn[0], kindMem, true, false),
	}
	verifyJobs(res, "warm-up", warmup)
	spills, _ := filepath.Glob(filepath.Join(stateDir, "indexes", "*.bwx"))
	res.set("setup_s", time.Since(setupStart).Seconds(), 1)

	// Cold phase: sequential jobs, each on a reference the cache has not seen.
	var cold []*jobRecord
	for _, in := range coldIn {
		rec := runJob(srv.base, in, kindCold, true, tr != nil)
		rec.trace(tr)
		cold = append(cold, rec)
	}
	verifyJobs(res, "cold", cold)
	res.set("cold_job_s", median(latencies(cold, kindCold, jobTotal)), len(cold))

	// Warm phase.
	var overheadPct float64
	if tr != nil {
		overheadPct = servedTraceOverhead(srv.base, seq[:min(sz.refJobs, len(seq))])
	}
	cpuBefore, _ := cpuSeconds(srv.pid())
	journalBefore := dirBytes(stateDir)
	// Closed loop, 2 clients, block after block. The fastest block is the
	// throughput figure, for the reason timedPasses gives; latencies are over
	// all jobs.
	var warm []*jobRecord
	var blockRates []float64
	kept := map[*jobInput]bool{}
	for lo := 0; lo < len(seq); lo += blockJobs {
		recs, wall := closedLoop(srv.base, seq[lo:lo+blockJobs], clients, tr != nil, kept)
		reads := 0
		for _, r := range recs {
			r.trace(tr)
			if r.err == nil {
				reads += r.rows
			}
		}
		warm = append(warm, recs...)
		blockRates = append(blockRates, float64(reads)/wall.Seconds())
	}
	cpuAfter, _ := cpuSeconds(srv.pid())
	journalAfter := dirBytes(stateDir)
	correct, planted := verifyJobs(res, "warm", warm)
	exactTotals := latencies(warm, kindExact, jobTotal)
	memTotals := latencies(warm, kindMem, jobTotal)
	res.set("reads_per_s", highest(blockRates), len(blockRates))
	res.set("exact_job_p50_s", median(exactTotals), len(exactTotals))
	res.set("exact_job_p90_s", percentile(exactTotals, 90), len(exactTotals))
	res.set("mem_job_p50_s", median(memTotals), len(memTotals))
	res.set("first_row_p50_s", median(latencies(warm, kindExact, jobFirstRow)), len(exactTotals))
	if planted > 0 {
		res.set("correct_fraction", float64(correct)/float64(planted), planted)
	}
	if len(spills) > 0 {
		bits, err := loadedBitsPerBase(spills[0])
		if err != nil {
			return nil, err
		}
		res.set("structure_bits_per_base", bits, 1)
	} else {
		res.check("index spill", 1, 1, "the server spilled no index under "+stateDir)
	}

	if tr != nil {
		if err := servedLayers(cfg, tr, res, srv, bin, hot, exactIn, memIn, warm); err != nil {
			return nil, err
		}
		jobs := float64(len(warm))
		res.set("server.cpu_s_per_job", (cpuAfter-cpuBefore)/jobs, len(warm))
		res.set("server.journal_bytes_per_job", float64(journalAfter-journalBefore)/jobs, len(warm))
		res.set("harness.trace_overhead_pct", overheadPct, min(sz.refJobs, len(seq)))
	}
	rss, err := peakRSSMB(srv.pid())
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss, 1)
	return res, cfg.finishTrace(tr)
}

// servedLayers is the traced run's extra work: per-phase metrics from the job
// spans, in-process equality of the served rows, the ingest rungs, the FPGA
// backend, and the gateway hop.
func servedLayers(cfg runConfig, tr *tracer, res *result, srv *serverProc, bin string, hot *reference,
	exactIn, memIn []*jobInput, warm []*jobRecord) error {
	sz := cfg.servedSizes()
	msOf := func(parent, child string) float64 { return median(tr.childDurations(parent, child)) * 1e3 }
	res.set("server.submit_ms", msOf("job.exact", "server.submit"), len(tr.durations("job.exact")))
	res.set("server.stream_drain_ms", msOf("job.exact", "server.stream_drain"), len(tr.durations("job.exact")))
	res.set("server.parse_ms", msOf("job.exact", "reported.parse"), len(tr.durations("job.exact")))
	res.set("server.build_ms", msOf("job.cold", "reported.build"), len(tr.durations("job.cold")))
	res.set("server.map_ms", msOf("job.exact", "reported.map"), len(tr.durations("job.exact")))
	var overhead []float64
	for _, r := range warm {
		if r.err == nil && r.kind == kindExact {
			overhead = append(overhead, ms(r.total)-r.reported.ParseMs-r.reported.BuildMs-r.reported.MapMs)
		}
	}
	res.set("server.overhead_ms", median(overhead), len(overhead))
	var stats struct {
		Cache struct {
			Hits   float64 `json:"hits"`
			Misses float64 `json:"misses"`
		} `json:"cache"`
	}
	if err := getJSON(srv.base+"/api/stats", &stats); err != nil {
		return err
	}
	if total := stats.Cache.Hits + stats.Cache.Misses; total > 0 {
		res.set("server.cache_hit_ratio", stats.Cache.Hits/total, int(total))
	}

	// Served rows equal the in-process results for the same input.
	ix, err := buildIndex(nil, 0, hot)
	if err != nil {
		return err
	}
	if err := ix.ensureMem(nil, 0); err != nil {
		return err
	}
	kept := map[*jobInput]*jobRecord{}
	for _, r := range warm {
		if r.err == nil && r.body != nil {
			kept[r.in] = r
		}
	}
	for _, in := range append(append([]*jobInput{}, exactIn...), memIn...) {
		rec, ok := kept[in]
		if !ok {
			continue
		}
		differ, first, err := compareInProcess(ix, rec)
		if err != nil {
			return err
		}
		res.check("served rows equal in-process results", in.reads.n(), differ, first)
	}

	fastq, err := exactIn[0].reads.fastq()
	if err != nil {
		return err
	}
	if err := ingestLadder(tr, 0, fastq); err != nil {
		return err
	}
	res.set("fastx.parse_mb_per_s", tr.ops("fastx.Reader.Read")/1e6/tr.seconds("fastx.Reader.Read"), 1)
	res.set("qc.gate_reads_per_s", tr.ops("qc.Ingest")/tr.seconds("qc.Ingest"), 1)

	// The Farm path: sequential exact jobs on the simulated device.
	hotFasta, err := hot.fasta("hot")
	if err != nil {
		return err
	}
	fpgaIn, err := newJobInput(kindFPGA, hot, hotFasta, exactIn[0].reads, [2]string{"backend", "fpga"})
	if err != nil {
		return err
	}
	var fpgaJobs []*jobRecord
	for i := 0; i < sz.fpgaJobs; i++ {
		rec := runJob(srv.base, fpgaIn, kindFPGA, i == 0, true)
		rec.trace(tr)
		fpgaJobs = append(fpgaJobs, rec)
	}
	verifyJobs(res, "fpga backend", fpgaJobs)
	if first := fpgaJobs[0]; first.err == nil && kept[exactIn[0]] != nil && first.crc != kept[exactIn[0]].crc {
		res.check("fpga backend rows equal cpu rows", 1, 1, fmt.Sprintf("job %d streamed different rows than the cpu backend", first.id))
	}
	res.set("server.fpga_job_ms", median(tr.durations("job.fpga"))*1e3, len(fpgaJobs))

	return clusterLayers(cfg, tr, res, srv, bin, exactIn)
}

// compareInProcess maps a job's reads in process and counts rows that differ
// from what the server streamed.
func compareInProcess(ix *index, rec *jobRecord) (differ int, first string, err error) {
	reads := rec.in.reads
	lines := bytes.Split(bytes.TrimRight(rec.body, "\n"), []byte("\n"))
	note := func(i int) {
		differ++
		if first == "" {
			first = fmt.Sprintf("job %d row %d (%s) differs from the in-process result", rec.id, i+1, reads.ids[i])
		}
	}
	if reads.paired {
		got := newMemResults(reads.n())
		if err := ix.mapMem(nil, 0, reads, workers, got); err != nil {
			return 0, "", err
		}
		want := ix.memRows(reads, got)
		for i, line := range lines {
			var row memRowJSON
			if json.Unmarshal(line, &row) != nil || row.fields() != want[i] {
				note(i)
			}
		}
		return differ, first, nil
	}
	got := newExactResults(reads.n())
	if err := ix.mapExact(nil, 0, reads, workers, got); err != nil {
		return 0, "", err
	}
	for i, line := range lines {
		var row exactRowJSON
		fc, fp, rc, rp := got.row(i)
		if json.Unmarshal(line, &row) != nil || row.FwCount != fc || row.FwPositions != fp || row.RcCount != rc || row.RcPositions != rp {
			note(i)
		}
	}
	return differ, first, nil
}

// clusterLayers measures the gateway rung: the same exact jobs sent straight
// to the standalone server and through a gateway with 2 workers, one client,
// one job in flight.
func clusterLayers(cfg runConfig, tr *tracer, res *result, srv *serverProc, bin string, exactIn []*jobInput) error {
	sz := cfg.servedSizes()
	gw, err := startServer(bin, filepath.Join(cfg.outDir, "gateway.log"), "-mode=gateway", "-heartbeat-interval="+clusterHeartbeat)
	if err != nil {
		return err
	}
	defer gw.stop()
	for i := 0; i < 2; i++ {
		w, err := startServer(bin, filepath.Join(cfg.outDir, fmt.Sprintf("worker%d.log", i)),
			"-mode=worker", "-gateway-url="+gw.base, "-heartbeat-interval="+clusterHeartbeat, "-max-jobs", "2")
		if err != nil {
			return err
		}
		defer w.stop()
	}
	deadline := time.Now().Add(clusterReadyTimeout)
	for {
		var health struct {
			Healthy int `json:"workers_healthy"`
		}
		if err := getJSON(gw.base+"/api/health", &health); err == nil && health.Healthy == 2 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway did not see 2 healthy workers; see %s", filepath.Join(cfg.outDir, "gateway.log"))
		}
		time.Sleep(50 * time.Millisecond)
	}
	in := exactIn[0]
	// The first job through the gateway builds the index on the owning worker.
	if rec := runJob(gw.base, in, kindVia, false, false); rec.err != nil {
		return fmt.Errorf("gateway warm-up job: %w", rec.err)
	}
	var direct, via []*jobRecord
	for i := 0; i < sz.clusterJobs; i++ {
		d := runJob(srv.base, in, kindExact, i == 0, false)
		d.kind = kindDirect
		d.trace(tr)
		v := runJob(gw.base, in, kindVia, i == 0, false)
		v.trace(tr)
		direct, via = append(direct, d), append(via, v)
	}
	verifyJobs(res, "direct", direct)
	verifyJobs(res, "gateway", via)
	res.set("cluster.forward_overhead_ms",
		(median(tr.durations("job."+kindVia))-median(tr.durations("job."+kindDirect)))*1e3, sz.clusterJobs)
	res.set("cluster.first_row_overhead_ms",
		(median(latencies(via, kindVia, jobFirstRow))-median(latencies(direct, kindDirect, jobFirstRow)))*1e3, sz.clusterJobs)
	return nil
}
