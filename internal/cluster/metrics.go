package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"strings"

	"bwaver/internal/obs"
)

// initMetrics registers the gateway's own observability series.
func (g *Gateway) initMetrics() {
	g.metrics = obs.NewRegistry()
	g.mForwards = g.metrics.Counter("bwaver_gateway_forwards_total",
		"Submissions accepted by a worker.", "worker")
	g.mRetries = g.metrics.Counter("bwaver_gateway_forward_retries_total",
		"Forward attempts that failed or were rejected and moved to the next replica.", "worker")
	g.mFailovers = g.metrics.Counter("bwaver_gateway_failovers_total",
		"Jobs re-routed to a replica after their worker was evicted.", "worker")
	g.mLocalJobs = g.metrics.Counter("bwaver_gateway_local_jobs_total",
		"Jobs served by the embedded standalone fallback.")
	g.mHeartbeats = g.metrics.Counter("bwaver_gateway_heartbeats_total",
		"Heartbeat probes by outcome.", "worker", "outcome")
	g.mScrapeErrors = g.metrics.Counter("bwaver_gateway_scrape_errors_total",
		"Scatter-gather fetches that failed.", "worker")
	g.mBreakerState = g.metrics.Gauge("bwaver_gateway_worker_breaker_open",
		"1 when the worker's circuit breaker is open (evicted from routing).", "worker")
	g.mWorkerDepth = g.metrics.Gauge("bwaver_gateway_worker_queue_depth",
		"Queue depth last reported by the worker's heartbeat.", "worker")
	g.metrics.GaugeFunc("bwaver_gateway_workers_healthy",
		"Workers currently in rotation.", func() float64 {
			h, _ := g.reg.Counts()
			return float64(h)
		})
	g.metrics.GaugeFunc("bwaver_gateway_workers_total",
		"Workers registered with the gateway.", func() float64 {
			_, t := g.reg.Counts()
			return float64(t)
		})
	g.metrics.GaugeFunc("bwaver_gateway_evictions_total",
		"Lifetime breaker evictions.", func() float64 {
			e, _ := g.reg.Totals()
			return float64(e)
		})
	g.metrics.GaugeFunc("bwaver_gateway_readmissions_total",
		"Lifetime cooldown re-admissions.", func() float64 {
			_, r := g.reg.Totals()
			return float64(r)
		})
	g.metrics.GaugeFunc("bwaver_gateway_routed_jobs",
		"Jobs currently tracked in the gateway's routing table.", func() float64 {
			g.mu.Lock()
			defer g.mu.Unlock()
			return float64(len(g.routes))
		})
}

// handleMetrics serves a merged Prometheus exposition: the gateway's own
// series first, then every worker's /metrics and the fallback server's,
// each relabeled with worker="<url>" (worker="local" for the fallback) so
// series from different nodes never collide.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	scrapes := g.scatter(r.Context(), "/metrics")
	var buf bytes.Buffer
	g.metrics.WritePrometheus(&buf)
	// seenMeta dedups # HELP / # TYPE lines: every node exposes the same
	// families, and Prometheus wants the metadata once per exposition.
	seenMeta := map[string]bool{}
	for _, sc := range scrapes {
		name := workerLabel(sc.upstream)
		if sc.err != nil {
			fmt.Fprintf(&buf, "# worker %s scrape failed: %s\n", name, strings.ReplaceAll(sc.err.Error(), "\n", " "))
			continue
		}
		relabelPrometheus(&buf, sc.body, name, seenMeta)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write(buf.Bytes())
}

// relabelPrometheus rewrites one node's exposition, injecting
// worker="<name>" as the first label of every sample line. Metadata lines
// are emitted once across all nodes (tracked in seenMeta); other comments
// and blanks are dropped.
func relabelPrometheus(out *bytes.Buffer, exposition []byte, workerName string, seenMeta map[string]bool) {
	sc := bufio.NewScanner(bytes.NewReader(exposition))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	label := fmt.Sprintf("worker=%q", workerName)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE "):
			if !seenMeta[line] {
				seenMeta[line] = true
				out.WriteString(line)
				out.WriteByte('\n')
			}
		case strings.HasPrefix(line, "#"):
			continue
		default:
			out.WriteString(injectLabel(line, label))
			out.WriteByte('\n')
		}
	}
}

// injectLabel adds one label pair to a Prometheus sample line, handling both
// the labeled (`name{a="b"} 1`) and bare (`name 1`) forms.
func injectLabel(line, label string) string {
	brace := strings.IndexByte(line, '{')
	space := strings.IndexByte(line, ' ')
	if space < 0 {
		return line
	}
	if brace >= 0 && brace < space {
		rest := line[brace+1:]
		if strings.HasPrefix(rest, "}") { // empty label set: name{} value
			return line[:brace+1] + label + rest
		}
		return line[:brace+1] + label + "," + rest
	}
	return line[:space] + "{" + label + "}" + line[space:]
}
