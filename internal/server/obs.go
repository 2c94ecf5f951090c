package server

import (
	"fmt"
	"net/http"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/fpga"
	"bwaver/internal/obs"
	"bwaver/internal/qc"
	"bwaver/internal/resilience"
)

// Observability wiring: the Prometheus-style registry behind GET /metrics,
// the per-route HTTP instrumentation and access log, and the per-job trace
// endpoint. The registry mixes two collector styles deliberately: stage
// histograms and job counters are written at event time, while cache, queue,
// resilience, and breaker figures are read at scrape time from the state
// their owners already maintain — no double bookkeeping to drift.

// initObs builds the metric registry and instruments. Called once from
// NewWithConfig, before any job can run.
func (s *Server) initObs() {
	if s.log == nil {
		s.log = obs.NopLogger()
	}
	reg := obs.NewRegistry()
	s.registry = reg

	s.mJobsTotal = reg.Counter("bwaver_jobs_finished_total",
		"Jobs that reached a terminal state, by state (done, failed, canceled).", "state")
	s.mJobStage = reg.Histogram("bwaver_job_stage_seconds",
		"Wall-clock duration of completed-job pipeline stages (parse, build, map).", nil, "stage")
	s.mBuildStage = reg.Histogram("bwaver_build_stage_seconds",
		"Duration of index-construction phases (sa, bwt, encode) for fresh, uncached builds.", nil, "stage")
	s.mHTTPTotal = reg.Counter("bwaver_http_requests_total",
		"HTTP requests served, by route and status code.", "route", "code")
	s.mHTTPSeconds = reg.Histogram("bwaver_http_request_seconds",
		"HTTP request latency by route.", nil, "route")
	s.mAdmissionRejected = reg.Counter("bwaver_admission_rejected_total",
		"Job submissions refused before a job was created, by reason (draining, queue_full, rate_limited).", "reason")
	s.mStreamEvents = reg.Counter("bwaver_stream_events_total",
		"Result rows appended to job result streams.")
	s.mStreamSubscribers = reg.Gauge("bwaver_stream_subscribers",
		"Clients currently connected to GET /api/jobs/{id}/stream.")
	s.mUploadChunks = reg.Counter("bwaver_upload_chunks_total",
		"Chunks committed through the resumable ingest protocol, by part.", "part")
	s.mUploadBytes = reg.Counter("bwaver_upload_bytes_total",
		"Bytes committed through the resumable ingest protocol, by part.", "part")
	reg.CounterFunc("bwaver_jobs_replayed_total",
		"Jobs re-queued from the journal at startup.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.jobsReplayed) })
	reg.GaugeFunc("bwaver_draining",
		"1 while the server is draining (rejecting new jobs), else 0.",
		func() float64 {
			if s.Draining() {
				return 1
			}
			return 0
		})

	// Breaker transitions are pushed by the devices themselves (outside the
	// breaker lock); position and trip count are read at scrape time.
	transitions := reg.Counter("bwaver_breaker_transitions_total",
		"Circuit-breaker state transitions, by device and new state.", "device", "to")
	for i, d := range s.devices {
		dev := strconv.Itoa(i)
		b := d.Breaker()
		b.SetNotify(func(_, to resilience.State) {
			transitions.With(dev, to.String()).Inc()
		})
		reg.GaugeFunc("bwaver_breaker_state",
			"Breaker position by device: 0 closed, 1 open, 2 half-open.",
			func() float64 { return float64(b.State()) }, "device", dev)
		reg.CounterFunc("bwaver_breaker_trips_total",
			"Times each device's breaker has opened.",
			func() float64 { return float64(b.Trips()) }, "device", dev)
	}

	for _, st := range []JobState{StateUploading, StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		st := st
		reg.GaugeFunc("bwaver_jobs",
			"Jobs currently tracked by the server, by state.",
			func() float64 { return float64(s.countJobs(st)) }, "state", string(st))
	}
	reg.GaugeFunc("bwaver_queue_depth",
		"Jobs waiting for a pipeline slot.",
		func() float64 { return float64(s.countJobs(StateQueued)) })
	reg.CounterFunc("bwaver_jobs_evicted_total",
		"Finished jobs dropped by the TTL janitor.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.jobsEvicted) })

	reg.CounterFunc("bwaver_index_cache_hits_total",
		"Index cache lookups served from an existing or in-flight build.",
		func() float64 { return float64(s.cache.stats().Hits) })
	reg.CounterFunc("bwaver_index_cache_misses_total",
		"Index cache lookups that started a build.",
		func() float64 { return float64(s.cache.stats().Misses) })
	reg.CounterFunc("bwaver_index_cache_evictions_total",
		"Index cache entries dropped by the LRU.",
		func() float64 { return float64(s.cache.stats().Evictions) })
	reg.CounterFunc("bwaver_index_cache_disk_hits_total",
		"Cache misses served by loading a spilled index from the state dir.",
		func() float64 { return float64(s.cache.stats().DiskHits) })
	reg.GaugeFunc("bwaver_index_cache_entries",
		"Indexes currently cached.",
		func() float64 { return float64(s.cache.stats().Entries) })
	reg.GaugeFunc("bwaver_index_cache_bytes",
		"Host bytes of the cached indexes as of the scrape, seed-and-extend state included.",
		func() float64 { return float64(s.cache.stats().SizeBytes) })
	// The Go heap as the last collection left it and the size at which the
	// next one is due (twice the live heap at GOGC 100): the two figures that
	// attribute the process's resident peak.
	reg.GaugeFunc("bwaver_go_heap_live_bytes",
		"Go heap bytes marked live by the last garbage collection (runtime/metrics /gc/heap/live:bytes).",
		heapGauge("/gc/heap/live:bytes"))
	reg.GaugeFunc("bwaver_go_heap_goal_bytes",
		"Go heap size at which the next garbage collection is due (runtime/metrics /gc/heap/goal:bytes).",
		heapGauge("/gc/heap/goal:bytes"))

	// Prefix-table lookups, aggregated over cached indexes at scrape time.
	// hit: the table answered (living or stored dead range); miss: the query
	// suffix held an out-of-alphabet symbol; short: the read was below k.
	for _, res := range []string{"hit", "miss", "short"} {
		res := res
		reg.CounterFunc("bwaver_ftab_lookups_total",
			"K-mer prefix-table lookups across cached indexes, by outcome.",
			func() float64 {
				fs := s.cache.ftabStats(s.cfg.FtabK)
				switch res {
				case "hit":
					return float64(fs.Hits)
				case "miss":
					return float64(fs.Misses)
				default:
					return float64(fs.Short)
				}
			}, "result", res)
	}
	reg.GaugeFunc("bwaver_ftab_bytes",
		"Total prefix-table bytes across cached indexes.",
		func() float64 { return float64(s.cache.ftabStats(s.cfg.FtabK).SizeBytes) })

	// Seed-and-extend (mode=mem) pipeline totals, read at scrape time from
	// the aggregate the mapping loop maintains under s.mu.
	memStat := func(get func(core.MemStats) int) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(get(s.memStats))
		}
	}
	reg.CounterFunc("bwaver_mem_reads_total",
		"Reads mapped through the seed-and-extend (mode=mem) pipeline.",
		memStat(func(m core.MemStats) int { return m.Reads }))
	reg.CounterFunc("bwaver_mem_mapped_reads_total",
		"mode=mem reads that produced an alignment.",
		memStat(func(m core.MemStats) int { return m.MappedReads }))
	reg.CounterFunc("bwaver_mem_seeds_total",
		"SMEM seeds surviving the ambiguity guard.",
		memStat(func(m core.MemStats) int { return m.Seeds }))
	reg.CounterFunc("bwaver_mem_chains_total",
		"Collinear seed chains formed.",
		memStat(func(m core.MemStats) int { return m.Chains }))
	reg.CounterFunc("bwaver_mem_extensions_total",
		"Banded extensions executed.",
		memStat(func(m core.MemStats) int { return m.Extensions }))
	reg.CounterFunc("bwaver_mem_rescues_total",
		"Mates placed by the paired rescue scan instead of their own seeds.",
		memStat(func(m core.MemStats) int { return m.Rescues }))
	reg.CounterFunc("bwaver_mem_dp_cells_total",
		"Dynamic-programming cells evaluated by mode=mem extensions.",
		memStat(func(m core.MemStats) int { return m.Cells }))
	reg.CounterFunc("bwaver_mem_reconfigs_total",
		"Fabric reconfigurations charged by mode=mem FPGA jobs (one per "+
			"session under the batched two-pass schedule).",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.memReconfigs)
		})

	// QC gate totals. Reject reasons are a fixed enum pre-registered here so
	// journal tampering or future drift cannot mint new label values.
	qcStat := func(get func(qc.Report) int) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(get(s.qcTotals))
		}
	}
	for _, reason := range qc.Reasons() {
		if reason == qc.ReasonMalformed {
			continue // malformed records are counted separately below
		}
		reason := reason
		reg.CounterFunc("bwaver_qc_rejected_total",
			"Reads rejected by the QC gate, by reason.",
			qcStat(func(rep qc.Report) int { return rep.Rejected[reason] }),
			"reason", reason)
	}
	reg.CounterFunc("bwaver_qc_rejected_total",
		"Reads rejected by the QC gate, by reason.",
		qcStat(func(rep qc.Report) int { return rep.Rejected["invalid"] }),
		"reason", "invalid")
	reg.CounterFunc("bwaver_qc_malformed_total",
		"Malformed FASTQ records the tolerant decoder skipped.",
		qcStat(func(rep qc.Report) int { return rep.Malformed }))
	reg.CounterFunc("bwaver_qc_trimmed_bases_total",
		"Bases removed by 3' quality trimming.",
		qcStat(func(rep qc.Report) int { return rep.TrimmedBases }))

	for _, stage := range []string{"index", "query", "kernel", "result", "corrupt"} {
		stage := stage
		reg.CounterFunc("bwaver_fpga_faults_total",
			"Device failures the farms observed, by stage.",
			func() float64 { return float64(s.rec.Snapshot().Faults[stage]) }, "stage", stage)
	}
	reg.CounterFunc("bwaver_fpga_retries_total",
		"Shard attempts repeated on the same device.",
		func() float64 { return float64(s.rec.Snapshot().Retries) })
	reg.CounterFunc("bwaver_fpga_redistributed_shards_total",
		"Shards handed to a different device after their primary gave out.",
		func() float64 { return float64(s.rec.Snapshot().Redistributed) })
	reg.CounterFunc("bwaver_fpga_checksum_mismatches_total",
		"Result batches the host rejected on checksum.",
		func() float64 { return float64(s.rec.Snapshot().ChecksumMismatches) })
	reg.CounterFunc("bwaver_fpga_crosscheck_failures_total",
		"Sampled CPU cross-check rejections.",
		func() float64 { return float64(s.rec.Snapshot().CrossCheckFailures) })
	reg.CounterFunc("bwaver_fpga_exhausted_runs_total",
		"Runs that failed on every available device.",
		func() float64 { return float64(s.rec.Snapshot().Exhausted) })
	reg.CounterFunc("bwaver_cpu_fallbacks_total",
		"Jobs transparently rerun on the CPU baseline after a device failure.",
		func() float64 { return float64(s.rec.Snapshot().Fallbacks) })
}

// countJobs counts tracked jobs in one state.
func (s *Server) countJobs(state JobState) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.State == state {
			n++
		}
	}
	return n
}

// statusWriter captures the status code and byte count a handler wrote, for
// the access log and the per-route metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// Flush forwards to the wrapped writer so SSE responses stream through the
// instrumentation instead of buffering until the handler returns.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the per-route counter, latency histogram,
// and structured access log.
func (s *Server) instrument(route string, next http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next(sw, r)
		elapsed := time.Since(start)
		s.mHTTPTotal.With(route, strconv.Itoa(sw.status)).Inc()
		s.mHTTPSeconds.With(route).Observe(elapsed.Seconds())
		s.log.Info("http request",
			"method", r.Method,
			"path", r.URL.Path,
			"route", route,
			"status", sw.status,
			"bytes", sw.bytes,
			"duration_ms", float64(elapsed)/float64(time.Millisecond),
			"remote", r.RemoteAddr,
			"request_id", obs.RequestIDFrom(r.Context()))
	})
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	s.registry.WritePrometheus(w)
}

// handleTrace serves a job's span tree. Traces are live: open spans appear
// with duration_ms -1, so a running job can be watched mid-flight. Modeled
// spans carry the device's virtual-timeline offsets plus the device, attempt,
// and shard that produced them.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobByRequest(r)
	if err != nil {
		jsonError(w, http.StatusNotFound, err.Error())
		return
	}
	s.mu.Lock()
	tr := job.trace
	s.mu.Unlock()
	if tr == nil {
		jsonError(w, http.StatusNotFound, fmt.Sprintf("job %d has no trace (never launched)", job.ID))
		return
	}
	writeJSON(w, http.StatusOK, tr.Snapshot())
}

// addModeledEvents folds a tagged fpga event log into span as modeled
// children, one per device command, annotated with the identity the farm
// recorded: which device ran it, on which attempt, for which shard.
func addModeledEvents(span *obs.Span, events []fpga.Event) {
	if span == nil {
		return
	}
	for _, e := range events {
		span.AddModeled(e.Name, e.Start, e.End, map[string]any{
			"device":  e.Device,
			"attempt": e.Attempt,
			"shard":   e.Shard,
		})
	}
}

// heapGauge reads one runtime/metrics sample into storage it keeps, so a
// scrape allocates nothing for it.
func heapGauge(name string) func() float64 {
	var mu sync.Mutex
	sample := []metrics.Sample{{Name: name}}
	return func() float64 {
		mu.Lock()
		defer mu.Unlock()
		metrics.Read(sample)
		if sample[0].Value.Kind() != metrics.KindUint64 {
			return 0 // the runtime does not know this metric
		}
		return float64(sample[0].Value.Uint64())
	}
}
