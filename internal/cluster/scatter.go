package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"sync"

	"bwaver/internal/qc"
)

// Scatter-gather endpoints. Every fan-out fetch is bounded by WorkerTimeout,
// so one hung worker delays the scrape by at most that much and surfaces as
// an error entry instead of stalling the whole response.

// scrape is one upstream's answer to a fan-out GET.
type scrape struct {
	upstream string // a worker URL or localURL
	body     []byte
	err      error
}

// scatter GETs path from every registered worker and the embedded fallback
// server concurrently. Answers come back in upstream order: workers sorted
// by URL, the fallback server last. Failed fetches are counted as scrape
// errors.
func (g *Gateway) scatter(ctx context.Context, path string) []scrape {
	upstreams := append(g.reg.Workers(), localURL)
	out := make([]scrape, len(upstreams))
	var wg sync.WaitGroup
	for i, u := range upstreams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := g.fetch(ctx, u, path)
			if err != nil {
				g.mScrapeErrors.With(workerLabel(u)).Inc()
			}
			out[i] = scrape{upstream: u, body: body, err: err}
		}()
	}
	wg.Wait()
	return out
}

// handleHealth reports cluster health: worker pool state plus the gateway's
// own serving posture. Zero healthy workers means every new job is served by
// the embedded standalone fallback, which is exactly what "degraded" means
// here. Always HTTP 200 — the status lives in the body, like the workers'
// own /api/health.
func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	healthy, total := g.reg.Counts()
	evictions, readmissions := g.reg.Totals()
	status := "ok"
	if healthy == 0 {
		status = "degraded"
	}
	g.mu.Lock()
	routed := len(g.routes)
	g.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"role":            "gateway",
		"status":          status,
		"workers_healthy": healthy,
		"workers_total":   total,
		"evictions":       evictions,
		"readmissions":    readmissions,
		"routed_jobs":     routed,
		"workers":         g.reg.Snapshot(),
	})
}

// handleStats scatter-gathers /api/stats: one block per worker, the
// fallback server's as "local", a QC roll-up over all of them, and the
// gateway's own routing counters.
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	perWorker := map[string]any{}
	var local any
	var qcRollup qc.Report
	for _, sc := range g.scatter(r.Context(), "/api/stats") {
		var stats any
		switch {
		case sc.err != nil:
			stats = map[string]string{"error": sc.err.Error()}
		case json.Unmarshal(sc.body, &stats) != nil:
			stats = map[string]string{"error": "bad stats payload"}
		default:
			var probe struct {
				QC qc.Report `json:"qc"`
			}
			if json.Unmarshal(sc.body, &probe) == nil {
				qcRollup.Merge(probe.QC)
			}
		}
		if sc.upstream == localURL {
			local = stats
		} else {
			perWorker[sc.upstream] = stats
		}
	}
	healthy, total := g.reg.Counts()
	evictions, readmissions := g.reg.Totals()
	g.mu.Lock()
	routed := len(g.routes)
	g.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"role": "gateway",
		"cluster": map[string]any{
			"workers_healthy": healthy,
			"workers_total":   total,
			"evictions":       evictions,
			"readmissions":    readmissions,
			"routed_jobs":     routed,
			"qc":              qcRollup,
		},
		"workers": perWorker,
		"local":   local,
	})
}

// handleListJobs scatter-gathers every upstream's job list and re-addresses
// the routed ones to gateway IDs. Jobs submitted directly to a worker
// (bypassing the gateway) are not part of the gateway namespace and are
// skipped.
func (g *Gateway) handleListJobs(w http.ResponseWriter, r *http.Request) {
	scrapes := g.scatter(r.Context(), "/api/jobs")
	// Reverse index (owner, remoteID) → route.
	g.mu.Lock()
	byOwner := map[string]map[int]*routedJob{}
	for _, rj := range g.routes {
		m := byOwner[rj.worker]
		if m == nil {
			m = map[int]*routedJob{}
			byOwner[rj.worker] = m
		}
		m[rj.remoteID] = rj
	}
	g.mu.Unlock()
	merged := []map[string]any{}
	for _, sc := range scrapes {
		var jobs []map[string]any
		if sc.err != nil || json.Unmarshal(sc.body, &jobs) != nil {
			continue
		}
		for _, j := range jobs {
			rid, ok := j["id"].(float64)
			if !ok {
				continue
			}
			rj := byOwner[sc.upstream][int(rid)]
			if rj == nil {
				continue
			}
			j["id"] = rj.gwID
			j["worker"] = workerLabel(sc.upstream)
			if state, _ := j["state"].(string); state != "" {
				g.markState(rj, state)
			}
			merged = append(merged, j)
		}
	}
	sort.Slice(merged, func(i, k int) bool {
		return merged[i]["id"].(int) < merged[k]["id"].(int)
	})
	writeJSON(w, http.StatusOK, merged)
}
