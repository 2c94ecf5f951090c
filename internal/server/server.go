// Package server implements the BWaveR web application of §III-D: users
// upload a reference (FASTA) and reads (FASTQ), plain or gzipped; the server
// runs the three-step pipeline — BWT and SA computation, BWT encoding,
// sequence mapping — and serves the mapping results for download. The
// paper's Flask front-end becomes a net/http front-end; the FPGA co-processor
// becomes the simulated device of internal/fpga, selectable per job.
//
// Built indexes are held in a content-addressed LRU cache (see cache.go), so
// repeat references skip the dominant construction cost — the amortization
// the paper's fixed-overhead argument depends on. Jobs carry a context: they
// can be cancelled over the API (DELETE /api/jobs/{id}), bounded by a
// per-job timeout, and finished jobs are evicted after a TTL. Operational
// counters are exposed at /api/stats.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"io"
	"log/slog"
	"mime/multipart"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/fastx"
	"bwaver/internal/fpga"
	"bwaver/internal/obs"
	"bwaver/internal/qc"
	"bwaver/internal/readsim"
	"bwaver/internal/runner"
)

// Config tunes the server; zero values take the listed defaults.
type Config struct {
	// MaxConcurrentJobs bounds simultaneously running pipelines;
	// default DefaultMaxConcurrentJobs.
	MaxConcurrentJobs int
	// MaxUploadBytes bounds request bodies; default 256 MiB.
	MaxUploadBytes int64
	// CacheEntries is the index cache capacity in entries; default 8.
	CacheEntries int
	// FtabK is the order of the k-mer prefix-lookup table built into job
	// indexes (the first FtabK backward-search steps collapse into one table
	// lookup). 0 disables the table; the bwaver-server CLI passes
	// core.DefaultFtabK unless overridden with -ftab-k.
	FtabK int
	// JobTTL evicts finished (done/failed/canceled) jobs and their results
	// this long after completion; 0 retains jobs forever.
	JobTTL time.Duration
	// JobTimeout bounds each job's runtime (queue wait included);
	// 0 means no timeout.
	JobTimeout time.Duration
	// JanitorInterval is how often expired jobs are swept when JobTTL is
	// set; default 30s.
	JanitorInterval time.Duration

	// StateDir, when set, makes the server crash-safe: job lifecycle
	// transitions are journaled (fsync'd) under this directory, built
	// indexes are spilled to disk, and Open replays the journal on startup —
	// terminal jobs come back with their results, unfinished jobs re-queue.
	// Empty means stateless (the pre-journal behavior).
	StateDir string
	// MaxQueue bounds jobs waiting for a pipeline slot; submissions beyond
	// it are shed with 503. 0 takes DefaultMaxQueue, negative disables the
	// bound.
	MaxQueue int
	// RatePerSec is the per-client job-creation rate limit (token bucket,
	// keyed by client IP); exceeded clients get 429. 0 disables.
	RatePerSec float64
	// RateBurst is the token-bucket depth when RatePerSec is set; 0 derives
	// it from the rate (at least 1).
	RateBurst int
	// TrustedProxies is a comma-separated list of CIDRs (or bare IPs) whose
	// X-Forwarded-For headers are trusted for rate-limit client keying. Empty
	// (the default) never trusts the header.
	TrustedProxies string

	// StreamBatch is how many reads are mapped between result-stream flushes;
	// default runner.DefaultStreamBatch. Smaller batches stream sooner and hold
	// less memory; larger ones amortize per-batch overhead.
	StreamBatch int
	// UploadTimeout fails chunked jobs idle this long mid-upload, freeing
	// their admission queue slot; 0 disables the sweep.
	UploadTimeout time.Duration

	// Devices is the number of simulated accelerator cards; default 1.
	Devices int
	// FaultPlan, when non-nil, injects simulated faults into every device
	// (see fpga.ParseFaultPlan for the textual form).
	FaultPlan *fpga.FaultPlan
	// MaxRetries is how many times a failed shard is retried on the same
	// device after its first attempt; 0 takes the fpga default (2 retries,
	// 3 attempts), negative disables retries.
	MaxRetries int
	// BreakerThreshold consecutive failures open a device's circuit
	// breaker; 0 takes the fpga default.
	BreakerThreshold int
	// BreakerCooldown is the open-breaker probe delay; 0 takes the fpga
	// default.
	BreakerCooldown time.Duration
	// Fallback chooses what happens when the FPGA path fails with a device
	// error: "cpu" (default) transparently reruns the job on the CPU
	// baseline, "fail" surfaces the error as a failed job.
	Fallback string
	// VerifyStride cross-checks every Nth FPGA result against the CPU on
	// the host; default DefaultVerifyStride, negative disables.
	VerifyStride int

	// Logger receives structured request and job logs; nil discards them.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: the profiles expose internals and cost CPU to render.
	EnablePprof bool
}

// DefaultCacheEntries is the default index cache capacity.
const DefaultCacheEntries = 8

// DefaultVerifyStride samples every Nth FPGA result for a host-side CPU
// cross-check.
const DefaultVerifyStride = 64

func (c Config) withDefaults() Config {
	if c.MaxConcurrentJobs <= 0 {
		c.MaxConcurrentJobs = DefaultMaxConcurrentJobs
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 256 << 20
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = DefaultCacheEntries
	}
	if c.JanitorInterval <= 0 {
		c.JanitorInterval = 30 * time.Second
	}
	if c.Devices <= 0 {
		c.Devices = 1
	}
	if c.Fallback == "" {
		c.Fallback = "cpu"
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = DefaultMaxQueue
	} else if c.MaxQueue < 0 {
		c.MaxQueue = 0 // unlimited
	}
	if c.VerifyStride == 0 {
		c.VerifyStride = DefaultVerifyStride
	} else if c.VerifyStride < 0 {
		c.VerifyStride = 0
	}
	if c.StreamBatch <= 0 {
		c.StreamBatch = runner.DefaultStreamBatch
	}
	return c
}

// Server is the web application. Create with Open and mount via Handler.
type Server struct {
	mu     sync.Mutex
	jobs   map[int]*Job
	nextID int
	cfg    Config
	cache  *indexCache
	// devices are the simulated cards, shared by cached farms; the cards
	// own their circuit breakers, so health survives cache churn.
	devices []*fpga.Device
	// rec accumulates resilience counters across every farm.
	rec *fpga.StatsRecorder
	// sem bounds how many pipelines run at once; index builds are
	// memory-hungry (the suffix array alone is 4 bytes/base), so excess
	// jobs wait in the queued state instead of exhausting the host.
	sem chan struct{}
	// wg lets tests wait for asynchronous jobs.
	wg sync.WaitGroup

	// journal is the durable job log under Config.StateDir; nil when the
	// server is stateless. limiter is the per-client admission rate limiter;
	// nil when disabled. Both are safe to use as nil.
	journal *journal
	limiter *rateLimiter
	// trustedProxies are the networks whose X-Forwarded-For is believed for
	// rate-limit keying; empty means never.
	trustedProxies []*net.IPNet
	// queuedCount tracks jobs occupying admission queue slots (queued +
	// uploading), maintained by setJobStateLocked so the -max-queue gate is
	// O(1) instead of a scan over every retained job. Guarded by mu.
	queuedCount int
	// idemKeys maps Idempotency-Key values to job IDs. Guarded by mu.
	idemKeys map[string]int
	// draining marks the server as shutting down: admission rejects new
	// jobs while in-flight ones finish. Guarded by mu.
	draining bool
	// jobsReplayed counts jobs re-queued from the journal at startup;
	// admissionRejected counts shed submissions by reason. Guarded by mu.
	jobsReplayed      uint64
	admissionRejected map[string]uint64

	// Stage figures summed over done jobs, for /api/stats: as durations, so
	// a total is exact rather than a sum of rounded milliseconds.
	totalParse    time.Duration
	totalBuild    time.Duration
	totalMap      time.Duration
	completedJobs int
	jobsEvicted   uint64
	// memStats aggregates the seed-and-extend pipeline counters (seeds,
	// chains, extensions, rescues, DP cells) over every mode=mem batch the
	// server has mapped, whichever backend ran it. Guarded by mu.
	memStats core.MemStats
	// memReconfigs counts fabric reconfigurations charged by mode=mem FPGA
	// jobs — one per session under the batched two-pass schedule, however
	// many batches the job streamed. Guarded by mu.
	memReconfigs uint64
	// qcTotals aggregates ingest QC accounting (attempted, malformed,
	// per-reason rejects, trimmed bases) over every job; journal recovery
	// re-merges terminal jobs' reports, so the totals survive restarts.
	// Guarded by mu.
	qcTotals qc.Report

	// Observability (see obs.go): structured logger, metric registry, and
	// the event-time instruments; scrape-time collectors read server state
	// directly.
	log                *slog.Logger
	registry           *obs.Registry
	mJobsTotal         *obs.CounterVec
	mJobStage          *obs.HistogramVec
	mBuildStage        *obs.HistogramVec
	mHTTPTotal         *obs.CounterVec
	mHTTPSeconds       *obs.HistogramVec
	mAdmissionRejected *obs.CounterVec
	mStreamEvents      *obs.CounterVec
	mStreamSubscribers *obs.GaugeVec
	mUploadChunks      *obs.CounterVec
	mUploadBytes       *obs.CounterVec

	janitorStop chan struct{}
	janitorDone chan struct{}
	closeOnce   sync.Once

	// testHookBeforeRun, when set, runs at the start of every job's
	// pipeline with the job's context; tests use it to hold jobs in the
	// running state deterministically.
	testHookBeforeRun func(*Job, context.Context)
	// testHookDuringBuild, when set, runs inside the index-build closure
	// before construction; tests use it to cancel jobs mid-build.
	testHookDuringBuild func(*Job, context.Context)
	// testHookParseReference, when set, runs before a job parses its raw
	// reference; tests use it to prove warm jobs never do.
	testHookParseReference func(*Job)
	// testHookOpenReads, when set, wraps the reader a job opens over its reads
	// payload; tests use it to watch how far ahead of its mapping a job reads.
	testHookOpenReads func(io.ReadCloser) io.ReadCloser
}

// DefaultMaxConcurrentJobs bounds simultaneously running pipelines.
const DefaultMaxConcurrentJobs = 2

// Open creates a server and, when cfg.StateDir is set, opens the durable
// job journal and replays it: finished jobs are restored with their results
// and accepted-but-unfinished jobs are re-queued against their persisted
// inputs, then the journal is compacted. When cfg.JobTTL or
// cfg.UploadTimeout is set, a janitor goroutine sweeps expired jobs until
// Close is called. The error covers an unusable state directory or a bad
// TrustedProxies list.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	devices := make([]*fpga.Device, cfg.Devices)
	for i := range devices {
		dev, err := fpga.NewDevice(fpga.Config{})
		if err != nil {
			// The zero config resolves to the paper-aligned defaults, which
			// always validate.
			panic("server: default fpga device: " + err.Error())
		}
		dev.EnableFaults(cfg.FaultPlan, i)
		devices[i] = dev
	}
	s := &Server{
		jobs:              map[int]*Job{},
		nextID:            1,
		cfg:               cfg,
		cache:             newIndexCache(cfg.CacheEntries),
		devices:           devices,
		rec:               fpga.NewStatsRecorder(),
		sem:               make(chan struct{}, cfg.MaxConcurrentJobs),
		log:               cfg.Logger,
		limiter:           newRateLimiter(cfg.RatePerSec, cfg.RateBurst),
		admissionRejected: map[string]uint64{},
		idemKeys:          map[string]int{},
	}
	if cfg.TrustedProxies != "" {
		nets, err := parseTrustedProxies(cfg.TrustedProxies)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.trustedProxies = nets
	}
	s.initObs()
	if cfg.StateDir != "" {
		jl, err := openJournal(cfg.StateDir, s.log)
		if err != nil {
			return nil, err
		}
		s.journal = jl
		// Built indexes spill next to the journal, so replayed jobs (and
		// post-restart repeats) skip reconstruction; a corrupt spill file is
		// rejected by its checksum and rebuilt.
		s.cache.setSpill(filepath.Join(cfg.StateDir, indexSpillDir), s.log)
		if err := s.recover(); err != nil {
			jl.close()
			return nil, err
		}
	}
	if cfg.JobTTL > 0 || cfg.UploadTimeout > 0 {
		s.janitorStop = make(chan struct{})
		s.janitorDone = make(chan struct{})
		go s.janitor()
	}
	return s, nil
}

// Close stops the TTL janitor and closes the journal; it does not interrupt
// running jobs (use Wait or Drain for those). Safe to call multiple times
// and on servers without a TTL or state dir.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.janitorStop != nil {
			close(s.janitorStop)
			<-s.janitorDone
		}
		s.journal.close()
	})
}

func (s *Server) janitor() {
	defer close(s.janitorDone)
	ticker := time.NewTicker(s.cfg.JanitorInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			now := time.Now()
			s.evictExpiredJobs(now)
			s.sweepStalledUploads(now)
		case <-s.janitorStop:
			return
		}
	}
}

// evictExpiredJobs drops finished jobs whose TTL has lapsed, freeing their
// retained TSV results. Evictions are journaled (with their result files
// removed) so a restart does not resurrect them. It returns how many were
// evicted.
func (s *Server) evictExpiredJobs(now time.Time) int {
	if s.cfg.JobTTL <= 0 {
		return 0
	}
	s.mu.Lock()
	var evicted []int
	for id, j := range s.jobs {
		if j.State.terminal() && !j.Finished.IsZero() && now.Sub(j.Finished) > s.cfg.JobTTL {
			s.releaseIdemKeyLocked(j)
			delete(s.jobs, id)
			evicted = append(evicted, id)
		}
	}
	s.jobsEvicted += uint64(len(evicted))
	s.mu.Unlock()
	for _, id := range evicted {
		s.journal.appendBestEffort(journalRecord{Type: recEvicted, Job: id})
		s.journal.removeFiles(resultsName(id), streamName(id))
	}
	return len(evicted)
}

// Handler returns the HTTP routes, each wrapped with the per-route request
// counter, latency histogram, and access log (see obs.go). Route labels are
// the patterns themselves, so metric cardinality stays fixed no matter what
// IDs clients request.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	routes := []struct {
		pattern string
		handler http.HandlerFunc
	}{
		{"GET /{$}", s.handleHome},
		{"POST /jobs", s.handleSubmit},
		{"GET /jobs/{id}", s.handleJob},
		{"GET /jobs/{id}/results", s.handleResults},
		{"GET /api/jobs/{id}", s.handleJobJSON},
		{"DELETE /api/jobs/{id}", s.handleCancelJob},
		{"GET /api/jobs", s.handleJobsJSON},
		{"POST /api/jobs", s.handleCreateJob},
		{"PUT /api/jobs/{id}/reference", s.handleUploadChunk("reference")},
		{"PUT /api/jobs/{id}/reads", s.handleUploadChunk("reads")},
		{"POST /api/jobs/{id}/finalize", s.handleFinalize},
		{"GET /api/jobs/{id}/stream", s.handleStream},
		{"GET /api/jobs/{id}/trace", s.handleTrace},
		{"GET /api/stats", s.handleStats},
		{"GET /api/health", s.handleHealth},
		{"GET /metrics", s.handleMetrics},
		{"GET /demo", s.handleDemo},
	}
	for _, rt := range routes {
		mux.Handle(rt.pattern, s.instrument(rt.pattern, rt.handler))
	}
	if s.cfg.EnablePprof {
		// Uninstrumented on purpose: profile downloads would dominate the
		// latency histograms.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	// Request identity wraps the whole mux so every handler — and the access
	// log inside instrument — sees the X-Request-Id on the context.
	return s.withRequestID(mux)
}

// jsonError writes the structured error envelope every /api/* handler uses:
// {"error": "..."} with the right status and content type.
func jsonError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// wantsJSON reports whether the client asked for a JSON response.
func wantsJSON(r *http.Request) bool {
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "application/json") || strings.Contains(accept, "application/x-ndjson")
}

// httpError renders an error for endpoints reachable from both the HTML forms
// and the API: the structured JSON envelope when the client accepts JSON,
// plain text otherwise. The form endpoints used to answer plain text
// unconditionally, so API clients had to parse two error shapes.
func httpError(w http.ResponseWriter, r *http.Request, status int, msg string) {
	if wantsJSON(r) {
		jsonError(w, status, msg)
		return
	}
	http.Error(w, msg, status)
}

func writeJSON(w http.ResponseWriter, status int, payload any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(payload)
}

func (s *Server) handleJobJSON(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobByRequest(r)
	if err != nil {
		jsonError(w, http.StatusNotFound, err.Error())
		return
	}
	s.mu.Lock()
	payload := job.toJSON()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, payload)
}

func (s *Server) handleJobsJSON(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]jobJSON, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j.toJSON())
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	writeJSON(w, http.StatusOK, jobs)
}

// handleCancelJob cancels a queued or running job. A queued job leaves the
// admission queue immediately: its launch goroutine is parked on the slot
// semaphore and the context cancellation below wins that select at once,
// freeing the queue slot for new admissions. An already-terminal job answers
// 409 carrying the terminal state, so a canceling client that raced the
// job's completion learns what actually happened.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobByRequest(r)
	if err != nil {
		jsonError(w, http.StatusNotFound, err.Error())
		return
	}
	for {
		s.mu.Lock()
		state, cancel := job.State, job.cancel
		if cancel != nil && !state.terminal() {
			// Cancel while still holding the lock: the state was checked
			// terminal-free under this same critical section, so the 202 below
			// can never race a completed job into looking cancelable.
			// CancelCauseFunc is lock-free; the job goroutine observes it at
			// its next context check.
			cancel(errJobCanceled)
		}
		s.mu.Unlock()
		switch {
		case state.terminal():
			writeJSON(w, http.StatusConflict, map[string]any{
				"error": fmt.Sprintf("job already %s", state),
				"id":    job.ID,
				"state": string(state),
			})
		case cancel != nil:
			writeJSON(w, http.StatusAccepted, map[string]any{"id": job.ID, "state": "canceling"})
		case s.endJob(job, endBeforeLaunch, stateCanceled, errJobCanceled.Error()):
			// Never launched (still uploading, created directly, or launch
			// still pending): canceled in place. A pending launch removes the
			// inputs it holds when it finds the job terminal.
			writeJSON(w, http.StatusOK, map[string]any{"id": job.ID, "state": string(stateCanceled)})
		default:
			continue // launched or ended since the look: look again
		}
		return
	}
}

// statsJSON is the /api/stats payload.
type statsJSON struct {
	Cache      cacheStats           `json:"cache"`
	Ftab       ftabStats            `json:"ftab"`
	Jobs       map[string]int       `json:"jobs"`
	QueueDepth int                  `json:"queue_depth"`
	Running    int                  `json:"running"`
	Evicted    uint64               `json:"jobs_evicted"`
	Stage      stageJSON            `json:"stage_totals"`
	Mem        memStatsJSON         `json:"mem"`
	QC         qc.Report            `json:"qc"`
	Resilience fpga.ResilienceStats `json:"resilience"`
	Devices    []fpga.DeviceHealth  `json:"devices"`
	Fallback   string               `json:"fallback_policy"`
	Admission  admissionJSON        `json:"admission"`
}

// memStatsJSON is the mem block of /api/stats: the pipeline counters plus
// the fabric-reconfiguration count the batched two-pass schedule charges.
type memStatsJSON struct {
	core.MemStats
	Reconfigs uint64 `json:"reconfigs"`
}

// admissionJSON is the overload-protection block of /api/stats.
type admissionJSON struct {
	Draining      bool              `json:"draining"`
	MaxQueue      int               `json:"max_queue"`
	MaxConcurrent int               `json:"max_concurrent_jobs"`
	RatePerSec    float64           `json:"rate_per_sec"`
	RateBurst     int               `json:"rate_burst"`
	Rejected      map[string]uint64 `json:"rejected"`
	JobsReplayed  uint64            `json:"jobs_replayed"`
	Durable       bool              `json:"durable"`
}

// stageJSON aggregates per-stage timings over completed (done) jobs.
type stageJSON struct {
	CompletedJobs int     `json:"completed_jobs"`
	ParseMsTotal  float64 `json:"parse_ms_total"`
	BuildMsTotal  float64 `json:"build_ms_total"`
	MapMsTotal    float64 `json:"map_ms_total"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	payload := statsJSON{
		Cache:      s.cache.stats(),
		Ftab:       s.cache.ftabStats(s.cfg.FtabK),
		Jobs:       map[string]int{},
		Resilience: s.rec.Snapshot(),
		Devices:    fpga.Health(s.devices),
		Fallback:   s.cfg.Fallback,
	}
	s.mu.Lock()
	for _, j := range s.jobs {
		payload.Jobs[string(j.State)]++
	}
	// Queue depth is the slot-holding count the -max-queue gate sees:
	// queued plus still-uploading jobs.
	payload.QueueDepth = s.queuedCount
	payload.Running = payload.Jobs[string(stateRunning)]
	payload.Evicted = s.jobsEvicted
	payload.Stage = stageJSON{
		CompletedJobs: s.completedJobs,
		ParseMsTotal:  ms(s.totalParse),
		BuildMsTotal:  ms(s.totalBuild),
		MapMsTotal:    ms(s.totalMap),
	}
	payload.Mem = memStatsJSON{MemStats: s.memStats, Reconfigs: s.memReconfigs}
	payload.QC = s.qcTotals
	payload.QC.Rejected = make(map[string]int, len(s.qcTotals.Rejected))
	for reason, n := range s.qcTotals.Rejected {
		payload.QC.Rejected[reason] = n
	}
	rejected := make(map[string]uint64, len(s.admissionRejected))
	for reason, n := range s.admissionRejected {
		rejected[reason] = n
	}
	payload.Admission = admissionJSON{
		Draining:      s.draining,
		MaxQueue:      s.cfg.MaxQueue,
		MaxConcurrent: s.cfg.MaxConcurrentJobs,
		RatePerSec:    s.cfg.RatePerSec,
		RateBurst:     s.cfg.RateBurst,
		Rejected:      rejected,
		JobsReplayed:  s.jobsReplayed,
		Durable:       s.journal != nil,
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, payload)
}

// healthJSON is the /api/health payload.
type healthJSON struct {
	// Status is "ok" (all breakers closed/half-open), "degraded" (some
	// open), "critical" (all open — every FPGA job will fall back or fail,
	// per the fallback policy), or "draining" (shutdown in progress; new
	// jobs are rejected while in-flight ones finish).
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
	// QueueDepth and jobsInFlight are the load figures cluster gateways and
	// external balancers read off the heartbeat: admission-slot holders
	// (queued + uploading) and running pipelines.
	QueueDepth   int                  `json:"queue_depth"`
	JobsInFlight int                  `json:"jobs_in_flight"`
	Devices      []fpga.DeviceHealth  `json:"devices"`
	Resilience   fpga.ResilienceStats `json:"resilience"`
	Fallback     string               `json:"fallback_policy"`
}

// handleHealth reports device health. It always answers 200 — the payload,
// not the status code, carries the verdict, so pollers can distinguish
// "degraded service" from "server down".
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	devices := fpga.Health(s.devices)
	open := 0
	for _, d := range devices {
		if d.Breaker == "open" {
			open++
		}
	}
	status := "ok"
	switch {
	case open == len(devices):
		status = "critical"
	case open > 0:
		status = "degraded"
	}
	draining := s.isDraining()
	if draining {
		// Drain outranks device health: orchestrators must route new work
		// elsewhere no matter how healthy the cards are.
		status = "draining"
	}
	writeJSON(w, http.StatusOK, healthJSON{
		Status:       status,
		Draining:     draining,
		QueueDepth:   s.queueDepth(),
		JobsInFlight: s.jobsInFlight(),
		Devices:      devices,
		Resilience:   s.rec.Snapshot(),
		Fallback:     s.cfg.Fallback,
	})
}

var homeTemplate = template.Must(template.New("home").Parse(`<!doctype html>
<html><head><title>BWaveR</title></head><body>
<h1>BWaveR — hybrid DNA sequence mapper</h1>
<p>Upload a reference genome (FASTA) and query sequences (FASTQ), plain or gzipped.
The pipeline computes the BWT and suffix array, encodes the BWT as a wavelet
tree of RRR sequences, and maps every read and its reverse complement.
Repeat references are served from the index cache.</p>
<form action="/jobs" method="post" enctype="multipart/form-data">
<p>Reference (FASTA): <input type="file" name="reference" required></p>
<p>Reads (FASTQ): <input type="file" name="reads" required></p>
<p>Block size b: <input type="number" name="b" value="15" min="2" max="15"></p>
<p>Superblock factor sf: <input type="number" name="sf" value="50" min="1"></p>
<p>Mismatch budget: <input type="number" name="mismatches" value="0" min="0" max="4"> (0 = exact)</p>
<p>Backend:
<select name="backend">
<option value="fpga">FPGA (simulated Alveo U200)</option>
<option value="cpu">CPU</option>
</select></p>
<p><input type="submit" value="Map"></p>
</form>
<h2>Jobs</h2>
<ul>{{range .}}<li><a href="/jobs/{{.ID}}">job {{.ID}}</a> — {{.State}} ({{.RefName}}, {{.Reads}} reads)</li>{{end}}</ul>
<p>No data handy? <a href="/demo">Run a synthetic demo job</a>.</p>
</body></html>`))

var jobTemplate = template.Must(template.New("job").Parse(`<!doctype html>
<html><head><title>BWaveR job {{.ID}}</title>
{{if or (eq .State "queued") (eq .State "running")}}<meta http-equiv="refresh" content="2">{{end}}
</head><body>
<h1>Job {{.ID}} — {{.State}}</h1>
{{if .Error}}<p style="color:red">{{.Error}}</p>{{end}}
<table>
<tr><td>Backend</td><td>{{.Backend}}{{if .FallbackUsed}} (fell back to CPU: {{.FallbackReason}}){{end}}</td></tr>
<tr><td>RRR parameters</td><td>b={{.B}} sf={{.SF}}</td></tr>
<tr><td>Mode</td><td>{{if .Mode}}{{.Mode}}{{else}}exact{{end}}</td></tr>
<tr><td>Mismatch budget</td><td>{{.Mismatches}}</td></tr>
<tr><td>Reference</td><td>{{.RefName}} ({{.RefLength}} bp)</td></tr>
<tr><td>Reads</td><td>{{.Reads}}</td></tr>
<tr><td>Progress</td><td>{{.Done}}/{{.Reads}}</td></tr>
<tr><td>Mapped</td><td>{{.Mapped}}</td></tr>
<tr><td>Index</td><td>{{if .CacheHit}}cache hit{{else}}built{{end}}</td></tr>
<tr><td>Index build</td><td>{{printf "%.3f" .BuildMs}} ms</td></tr>
<tr><td>Mapping</td><td>{{printf "%.3f" .MapMs}} ms</td></tr>
</table>
{{if eq .State "done"}}<p><a href="/jobs/{{.ID}}/results">Download results ({{if or (eq .Mode "mem") (eq .Mode "mem-pe")}}SAM{{else}}TSV{{end}})</a></p>{{end}}
<p><a href="/">Back</a></p>
</body></html>`))

func (s *Server) handleHome(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j.shown())
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	s.renderHTML(w, homeTemplate, jobs)
}

// renderHTML executes a template into a buffer first, so a mid-render
// failure produces a clean 500 instead of a half-written page, and the
// error detail goes to the log rather than the client.
func (s *Server) renderHTML(w http.ResponseWriter, tmpl *template.Template, data any) {
	var buf bytes.Buffer
	if err := tmpl.Execute(&buf, data); err != nil {
		s.log.Error("template render failed", "template", tmpl.Name(), "err", err)
		http.Error(w, "internal server error", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(buf.Bytes())
}

// Bounds on the non-file side of a multipart submission, the ones
// mime/multipart.ReadForm applied: total bytes of plain field values, and
// parts per body.
const (
	maxFormValueBytes = 10 << 20
	maxFormParts      = 1000
)

// submitForm is what handleSubmit keeps of a multipart body: the values of
// every plain field, the first "reference" and "reads" file parts, and the
// SHA-256 of the reference part taken while its bytes came off the wire — the
// first-level key of the index cache (see indexCache.aliases).
type submitForm struct {
	values url.Values
	jobInput
}

// readSubmitForm scans the multipart body once. Each kept file part is
// copied into a staged spool as it comes off the socket, so the upload is
// never held whole in memory on a durable server. Fields may come before or
// after the files; later duplicates of a file part are skipped. On an error
// no staged part is left behind.
func (s *Server) readSubmitForm(r *http.Request) (_ *submitForm, err error) {
	mr, err := r.MultipartReader()
	if err != nil {
		return nil, err
	}
	form := &submitForm{values: url.Values{}}
	defer func() {
		if err != nil {
			form.remove()
		}
	}()
	valueBudget := int64(maxFormValueBytes)
	for parts := 0; ; parts++ {
		part, err := mr.NextPart()
		if err == io.EOF {
			return form, nil
		}
		if err != nil {
			return nil, err
		}
		if parts == maxFormParts {
			return nil, multipart.ErrMessageTooLarge
		}
		name := part.FormName()
		switch {
		case name == "":
		case part.FileName() == "":
			var sb strings.Builder
			n, err := io.Copy(&sb, io.LimitReader(part, valueBudget+1))
			if err != nil {
				return nil, err
			}
			if valueBudget -= n; valueBudget < 0 {
				return nil, multipart.ErrMessageTooLarge
			}
			form.values.Add(name, sb.String())
		case name == "reference" && form.ref == nil:
			h := sha256.New()
			if form.ref, err = s.stage(io.TeeReader(part, h)); err != nil {
				return nil, err
			}
			form.refDigest = hex.EncodeToString(h.Sum(nil))
		case name == "reads" && form.reads == nil:
			if form.reads, err = s.stage(part); err != nil {
				return nil, err
			}
		}
	}
}

// stage copies r into a new staged spool, which journalAccept later renames
// to its job's payload name.
func (s *Server) stage(r io.Reader) (*spool, error) {
	sp, err := s.newSpool(stagedPayload)
	if err != nil {
		return nil, err
	}
	if _, err := sp.ReadFrom(r); err != nil {
		sp.remove()
		return nil, err
	}
	return sp, nil
}

// handleSubmit validates the request parameters and stages the raw upload
// bytes, then hands off to a job goroutine. Parsing and sanitizing the FASTA
// and FASTQ happen on the job goroutine, so a malformed or huge upload fails
// inside a visible job (stateFailed) instead of blocking the HTTP handler.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Idempotent replay first, before any gate: a retried submission must
	// come back with the original job without consuming a rate-limit token.
	idemKey := strings.TrimSpace(r.Header.Get("Idempotency-Key"))
	if job := s.idemLookup(idemKey); job != nil {
		s.answerSubmitted(w, r, job, true)
		return
	}
	// Shed before reading the body: a draining or rate-limited client's
	// upload should not cost parsing.
	if ae := s.preAdmit(r); ae != nil {
		s.rejectAdmission(w, ae)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	form, err := s.readSubmitForm(r)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, "bad upload: "+err.Error())
		return
	}
	params, err := DecodeForm(r.URL.Query(), form.values)
	switch {
	case err != nil:
	case form.ref == nil:
		err = errors.New("missing reference upload")
	case form.reads == nil:
		err = errors.New("missing reads upload")
	}
	if err != nil {
		form.remove()
		httpError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	s.admitAndLaunch(w, r, jobSpec{
		JobParams: params, IdemKey: idemKey,
		RequestID: obs.RequestIDFrom(r.Context()),
		Timeout:   s.effectiveTimeout(r),
	}, form.jobInput)
}

// admitAndLaunch is the tail every buffered submission shares: admit the job
// (or find the one its Idempotency-Key already names), make it durable, start
// it, answer the client. Inputs that no job takes are removed.
func (s *Server) admitAndLaunch(w http.ResponseWriter, r *http.Request, spec jobSpec, in jobInput) {
	job, existing, ae := s.admitJob(spec, stateQueued)
	if ae != nil || existing {
		in.remove()
	}
	if ae != nil {
		s.rejectAdmission(w, ae)
		return
	}
	if existing {
		s.answerSubmitted(w, r, job, true)
		return
	}
	if err := s.acceptAndLaunch(job, in); err != nil {
		s.log.Error("accepting job failed", "job", job.ID, "err", err)
		jsonError(w, http.StatusInternalServerError, "could not persist job")
		return
	}
	s.answerSubmitted(w, r, job, false)
}

// answerSubmitted responds to a successful (or idempotently replayed) submit:
// API clients get the job JSON, browsers get the redirect to the job page.
func (s *Server) answerSubmitted(w http.ResponseWriter, r *http.Request, job *Job, replayed bool) {
	if wantsJSON(r) {
		if replayed {
			s.respondIdempotentReplay(w, job)
			return
		}
		s.mu.Lock()
		payload := job.toJSON()
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, payload)
		return
	}
	http.Redirect(w, r, fmt.Sprintf("/jobs/%d", job.ID), http.StatusSeeOther)
}

// acceptAndLaunch makes an admitted job durable (journal + payloads, when a
// state dir is configured) and starts it. A journaling failure fails the job
// in place — accepting work the server cannot persist would silently break
// the crash-safety contract.
func (s *Server) acceptAndLaunch(job *Job, in jobInput) error {
	// Balance the WaitGroup reference admitJob took for the admit→launch
	// window; launch (or the failure path) is reached before this returns,
	// so the count never dips early.
	defer s.wg.Done()
	if err := s.journalAccept(job, in); err != nil {
		s.endJob(job, endUnaccepted, stateFailed, "journal: "+err.Error())
		return err
	}
	s.launch(job, in)
	return nil
}

// defaultDemoSeed seeds the /demo dataset; pass ?seed=N to override. One
// seed drives both the genome and the reads (reads use seed+1) so repeated
// demo runs are reproducible.
const defaultDemoSeed = 42

// handleDemo runs the pipeline on a small synthetic dataset so the UI can be
// exercised without files at hand. The dataset is rendered to FASTA/FASTQ
// bytes and staged in spools like the parts of an upload, so demo jobs are
// journaled and replayed exactly like real ones.
func (s *Server) handleDemo(w http.ResponseWriter, r *http.Request) {
	idemKey := strings.TrimSpace(r.Header.Get("Idempotency-Key"))
	if job := s.idemLookup(idemKey); job != nil {
		s.answerSubmitted(w, r, job, true)
		return
	}
	if ae := s.preAdmit(r); ae != nil {
		s.rejectAdmission(w, ae)
		return
	}
	seed := int64(defaultDemoSeed)
	if v := r.FormValue("seed"); v != "" {
		parsed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			httpError(w, r, http.StatusBadRequest, "parameter seed: "+err.Error())
			return
		}
		seed = parsed
	}
	var in jobInput
	refFasta, readsFastq, err := demoDataset(seed)
	if err == nil {
		in.ref, err = s.stage(bytes.NewReader(refFasta))
	}
	if err == nil {
		in.reads, err = s.stage(bytes.NewReader(readsFastq))
	}
	if err != nil {
		in.remove()
		s.log.Error("demo dataset generation failed", "seed", seed, "err", err)
		httpError(w, r, http.StatusInternalServerError, "internal server error")
		return
	}
	s.admitAndLaunch(w, r, jobSpec{
		JobParams: JobParams{Backend: "fpga", B: defaultB, SF: defaultSF},
		IdemKey:   idemKey,
		RequestID: obs.RequestIDFrom(r.Context()),
		Timeout:   s.effectiveTimeout(r),
	}, in)
}

// demoDataset renders the seeded synthetic reference and reads as FASTA and
// FASTQ bytes — the same wire form an upload arrives in.
func demoDataset(seed int64) (refFasta, readsFastq []byte, err error) {
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 50000, Seed: seed, RepeatFraction: 0.2})
	if err != nil {
		return nil, nil, err
	}
	sim, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 1000, Length: 80, MappingRatio: 0.7, RevCompFraction: 0.5, Seed: seed + 1,
	})
	if err != nil {
		return nil, nil, err
	}
	var fb bytes.Buffer
	fw := fastx.NewWriter(&fb, fastx.FASTA, false)
	if err := fw.Write(&fastx.Record{ID: "synthetic-demo", Seq: []byte(ref.String())}); err != nil {
		return nil, nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, nil, err
	}
	var qb bytes.Buffer
	qw := fastx.NewWriter(&qb, fastx.FASTQ, false)
	for _, rd := range sim {
		if err := qw.Write(&fastx.Record{ID: rd.ID, Seq: []byte(rd.Seq.String())}); err != nil {
			return nil, nil, err
		}
	}
	if err := qw.Close(); err != nil {
		return nil, nil, err
	}
	return fb.Bytes(), qb.Bytes(), nil
}

func (s *Server) jobByRequest(r *http.Request) (*Job, error) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return nil, fmt.Errorf("bad job id %q", r.PathValue("id"))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("job %d not found", id)
	}
	return job, nil
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobByRequest(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	s.mu.Lock()
	snapshot := job.shown()
	s.mu.Unlock()
	s.renderHTML(w, jobTemplate, snapshot)
}

// handleResults serves the TSV download (SAM for mode=mem) from the job's
// results spool — a file on a durable server, so the whole TSV is never held
// in memory — with Content-Length set so clients can show progress.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobByRequest(r)
	if err != nil {
		httpError(w, r, http.StatusNotFound, err.Error())
		return
	}
	s.mu.Lock()
	state, results, memJob := job.State, job.results, job.memMode()
	s.mu.Unlock()
	if state != stateDone {
		httpError(w, r, http.StatusConflict, fmt.Sprintf("job is %s; results not available", state))
		return
	}
	rc, err := results.open()
	if err != nil {
		s.log.Error("opening results failed", "job", job.ID, "err", err)
		httpError(w, r, http.StatusInternalServerError, "results unavailable")
		return
	}
	defer rc.Close()
	ctype := "text/tab-separated-values; charset=utf-8"
	filename := fmt.Sprintf("bwaver-job-%d.tsv", job.ID)
	if memJob {
		ctype = "text/x-sam; charset=utf-8"
		filename = fmt.Sprintf("bwaver-job-%d.sam", job.ID)
	}
	w.Header().Set("Content-Type", ctype)
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s", filename))
	w.Header().Set("Content-Length", strconv.FormatInt(results.size(), 10))
	io.Copy(w, rc)
}
