package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"html/template"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/obs"
	"bwaver/internal/server"
)

// Config tunes the gateway; zero values take the listed defaults.
type Config struct {
	// Workers are the statically configured worker base URLs; more can join
	// at runtime via POST /cluster/register.
	Workers []string
	// HeartbeatInterval is how often every worker's /api/health is probed;
	// default 2s.
	HeartbeatInterval time.Duration
	// WorkerTimeout bounds one heartbeat probe, one scatter-gather fetch,
	// and one forward round trip; default 2s. A hung worker costs at most
	// this much wall clock per scrape.
	WorkerTimeout time.Duration
	// MissThreshold consecutive missed heartbeats (or failed forwards) evict
	// a worker; default 3.
	MissThreshold int
	// Cooldown is how long an evicted worker stays out of rotation before a
	// successful heartbeat re-admits it; default 10s.
	Cooldown time.Duration
	// JobTimeout is the end-to-end deadline budget stamped on forwarded
	// jobs (server.TimeoutBudgetHeader, recomputed at every attempt, so a
	// retried or failed-over job never gets a fresh budget); 0 propagates no
	// budget.
	JobTimeout time.Duration
	// ForwardAttempts bounds submission attempts across ring replicas;
	// default 3.
	ForwardAttempts int
	// RetryBase is the exponential-backoff base between forward attempts
	// (capped at maxForwardBackoff, plus up to 50% jitter); default 50ms.
	RetryBase time.Duration
	// Vnodes is the ring's virtual nodes per worker; default defaultVnodes.
	Vnodes int
	// FtabK must match the workers' -ftab-k so the gateway computes the same
	// core.CacheKey the workers' caches are addressed by; default
	// core.DefaultFtabK.
	FtabK int
	// MaxUploadBytes bounds buffered submission bodies; default 256 MiB.
	MaxUploadBytes int64
	// Local is the embedded standalone server the gateway degrades to when
	// zero workers are healthy, reached in process as the upstream localURL.
	// Required.
	Local *server.Server
	// Logger receives gateway logs; nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.WorkerTimeout <= 0 {
		c.WorkerTimeout = 2 * time.Second
	}
	if c.MissThreshold <= 0 {
		c.MissThreshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 10 * time.Second
	}
	if c.ForwardAttempts <= 0 {
		c.ForwardAttempts = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.FtabK == 0 {
		c.FtabK = core.DefaultFtabK
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 256 << 20
	}
	return c
}

// routedJob is the gateway's record of one submission: where it lives now,
// and everything needed to re-run it somewhere else if that worker dies. The
// payload is retained until the job is observed terminal, then freed.
type routedJob struct {
	gwID        int
	key         string // ring key (core.CacheKey of the job's index)
	idemKey     string // forwarded on every attempt so replays dedupe
	requestID   string
	deadline    time.Time // zero = no budget
	method      string
	path        string // upstream submission path: "/jobs", "/demo", "/api/jobs"
	query       string
	contentType string
	body        []byte
	chunked     bool // created via POST /api/jobs; payload lives on the worker

	worker    string // current owner: a worker URL or localURL; "" until landed
	remoteID  int
	lastState string
	terminal  bool
	failovers int
	// failingOver single-flights re-forwards: the heartbeat sweep and a
	// proxy-time failover must not both re-run the job (the idempotency key
	// would still dedupe on one worker, but two different replicas could
	// each run it).
	failingOver bool
}

// Gateway is the cluster front door: an http.Handler that consistent-hashes
// submissions across registered workers, fails them over when workers die,
// and degrades to the embedded local server when none are healthy.
type Gateway struct {
	cfg    Config
	reg    *registry
	client *http.Client // reaches every upstream, the local one included
	log    *slog.Logger

	mu     sync.Mutex
	routes map[int]*routedJob
	idem   map[string]int // Idempotency-Key → gateway job ID
	nextID int

	metrics       *obs.Registry
	mForwards     *obs.CounterVec
	mRetries      *obs.CounterVec
	mFailovers    *obs.CounterVec
	mLocalJobs    *obs.CounterVec
	mHeartbeats   *obs.CounterVec
	mScrapeErrors *obs.CounterVec
	mBreakerState *obs.GaugeVec
	mWorkerDepth  *obs.GaugeVec

	stopOnce  sync.Once
	startOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New creates a gateway over cfg.Workers. Call Start to begin heartbeating
// and Close to stop; the embedded local server's lifecycle belongs to the
// caller.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if cfg.Local == nil {
		return nil, fmt.Errorf("cluster: Config.Local (standalone fallback server) is required")
	}
	g := &Gateway{
		cfg:    cfg,
		reg:    newRegistry(cfg.Vnodes, cfg.MissThreshold, cfg.Cooldown),
		client: newUpstreamClient(cfg.Local.Handler()),
		log:    cfg.Logger,
		routes: map[int]*routedJob{},
		idem:   map[string]int{},
		nextID: 1,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if g.log == nil {
		g.log = obs.NopLogger()
	}
	g.initMetrics()
	g.reg.onEvict = func(url string) {
		g.log.Warn("worker evicted; failing over its jobs", "worker", url)
		go g.failoverWorker(url)
	}
	for _, url := range cfg.Workers {
		url = strings.TrimRight(strings.TrimSpace(url), "/")
		if url != "" {
			g.reg.Register(url)
		}
	}
	return g, nil
}

// Start launches the heartbeat loop; safe to call once.
func (g *Gateway) Start() {
	g.startOnce.Do(func() { go g.heartbeatLoop() })
}

// Close stops the heartbeat loop. It does not close the embedded local
// server (the caller owns it).
func (g *Gateway) Close() {
	g.stopOnce.Do(func() {
		close(g.stop)
		g.startOnce.Do(func() { close(g.done) }) // never started: unblock the wait
		<-g.done
	})
}

// Handler returns the gateway's HTTP routes. The surface mirrors the worker
// API: clients talk to the cluster exactly as they would to one server.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", g.handleHome)
	mux.HandleFunc("POST /jobs", g.handleSubmit)
	mux.HandleFunc("GET /demo", g.handleSubmit)
	mux.HandleFunc("POST /api/jobs", g.handleSubmit)
	mux.HandleFunc("GET /api/jobs", g.handleListJobs)
	mux.HandleFunc("GET /jobs/{id}", g.proxyBuffered)
	mux.HandleFunc("GET /api/jobs/{id}", g.proxyBuffered)
	mux.HandleFunc("DELETE /api/jobs/{id}", g.proxyBuffered)
	mux.HandleFunc("PUT /api/jobs/{id}/reference", g.proxyBuffered)
	mux.HandleFunc("PUT /api/jobs/{id}/reads", g.proxyBuffered)
	mux.HandleFunc("POST /api/jobs/{id}/finalize", g.proxyBuffered)
	mux.HandleFunc("GET /api/jobs/{id}/trace", g.proxyBuffered)
	mux.HandleFunc("GET /jobs/{id}/results", g.proxyStream)
	mux.HandleFunc("GET /api/jobs/{id}/stream", g.proxyStream)
	mux.HandleFunc("GET /api/stats", g.handleStats)
	mux.HandleFunc("GET /api/health", g.handleHealth)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("POST /cluster/register", g.handleRegister)
	mux.HandleFunc("POST /cluster/deregister", g.handleDeregister)
	return g.withRequestID(mux)
}

// withRequestID stamps every request with an X-Request-Id (minting one when
// the client sent none), echoes it on the response, and writes the access
// log line.
func (g *Gateway) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := strings.TrimSpace(r.Header.Get(obs.RequestIDHeader))
		if reqID == "" {
			reqID = obs.NewRequestID()
		}
		w.Header().Set(obs.RequestIDHeader, reqID)
		r = r.WithContext(obs.WithRequestID(r.Context(), reqID))
		start := time.Now()
		next.ServeHTTP(w, r)
		g.log.Info("gateway request",
			"method", r.Method, "path", r.URL.Path,
			"request_id", reqID,
			"duration_ms", float64(time.Since(start))/float64(time.Millisecond))
	})
}

// writeJSON mirrors the worker's envelope so clients see one wire format.
func writeJSON(w http.ResponseWriter, status int, payload any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(payload)
}

func jsonError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func wantsJSON(r *http.Request) bool {
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "application/json") || strings.Contains(accept, "application/x-ndjson")
}

// addRoute allocates a gateway job ID for a submission, starts its deadline
// budget and records it.
func (g *Gateway) addRoute(rj *routedJob) {
	g.mu.Lock()
	defer g.mu.Unlock()
	rj.gwID = g.nextID
	if g.cfg.JobTimeout > 0 {
		rj.deadline = time.Now().Add(g.cfg.JobTimeout)
	}
	g.nextID++
	g.routes[rj.gwID] = rj
	if rj.idemKey != "" {
		g.idem[rj.idemKey] = rj.gwID
	}
}

// dropRoute forgets a submission that never landed anywhere.
func (g *Gateway) dropRoute(rj *routedJob) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.routes, rj.gwID)
	if rj.idemKey != "" && g.idem[rj.idemKey] == rj.gwID {
		delete(g.idem, rj.idemKey)
	}
}

// routeByIdem returns the route already holding an idempotency key, if any.
func (g *Gateway) routeByIdem(key string) *routedJob {
	if key == "" {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if id, ok := g.idem[key]; ok {
		return g.routes[id]
	}
	return nil
}

// route looks up a gateway job ID.
func (g *Gateway) route(id int) *routedJob {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.routes[id]
}

// markState folds a state string observed in a proxied response into the
// route; terminal states free the retained payload.
func (g *Gateway) markState(rj *routedJob, state string) {
	if state == "" {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	rj.lastState = state
	if state == "done" || state == "failed" || state == "canceled" {
		rj.terminal = true
		rj.body = nil
	}
}

// handleSubmit accepts a new job on any of the three submission routes — a
// multipart upload (POST /jobs), the synthetic demo (GET /demo) or a
// chunked-ingest shell (POST /api/jobs) — hashes it onto the ring and
// forwards it, path, query and body as the client sent them. The body is
// buffered so the payload can be re-sent to a replica if the chosen worker
// dies mid-job.
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	reqID := obs.RequestIDFrom(r.Context())
	idemKey := strings.TrimSpace(r.Header.Get("Idempotency-Key"))
	if rj := g.routeByIdem(idemKey); rj != nil {
		g.respondReplay(w, r, rj)
		return
	}
	if idemKey == "" {
		// Mint one: the key is what makes a failover re-forward safe against
		// double execution when it races a retry to the same worker.
		idemKey = "gw-" + reqID
	}
	rj := &routedJob{
		idemKey:     idemKey,
		requestID:   reqID,
		method:      r.Method,
		path:        r.URL.Path,
		query:       r.URL.RawQuery,
		contentType: r.Header.Get("Content-Type"),
	}
	if r.Method != http.MethodGet {
		body, ok := g.readBody(w, r)
		if !ok {
			return
		}
		rj.body = body
	}
	switch rj.path {
	case "/jobs":
		rj.key = g.ringKeyForUpload(rj.contentType, rj.query, rj.body)
	case "/demo":
		// Every worker renders the same seeded dataset from the parameters.
		rj.key = "demo|" + rj.query
	default:
		// A chunked-ingest shell has no payload yet, so no content address:
		// spread shells by idempotency key. The payload will live on the
		// owner, so the route is sticky: a failover while the job is still
		// uploading re-creates the empty shell on a replica and the client's
		// offset polling restarts the upload; past that, the route stays
		// pinned until the worker returns (canFailoverLocked).
		rj.key = "create|" + idemKey
		rj.chunked = true
	}
	g.addRoute(rj)
	g.dispatchSubmit(w, r, rj)
}

// readBody buffers a submission body under the upload cap.
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, g.cfg.MaxUploadBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		status := http.StatusBadRequest
		if isMaxBytes(err) {
			status = http.StatusRequestEntityTooLarge
		}
		jsonError(w, status, "reading upload: "+err.Error())
		return nil, false
	}
	return body, true
}

// dispatchSubmit forwards a new submission and renders the outcome.
func (g *Gateway) dispatchSubmit(w http.ResponseWriter, r *http.Request, rj *routedJob) {
	out, err := g.forwardSubmit(r.Context(), rj)
	if err != nil {
		g.dropRoute(rj)
		jsonError(w, http.StatusServiceUnavailable, "no worker accepted the job: "+err.Error())
		return
	}
	if out.status < 200 || out.status > 299 {
		// Pass the worker's structured rejection (queue full, rate limited,
		// bad request...) through verbatim; the submission never landed.
		g.dropRoute(rj)
		copyHeader(w.Header(), out.header, "Content-Type", "Retry-After")
		w.WriteHeader(out.status)
		w.Write(out.body)
		return
	}
	g.mu.Lock()
	rj.worker = out.worker
	rj.remoteID = out.remoteID
	rj.lastState = out.state
	g.mu.Unlock()
	g.log.Info("job routed",
		"gw_job", rj.gwID, "worker", workerLabel(out.worker), "remote_job", out.remoteID,
		"key", shortKey(rj.key), "request_id", rj.requestID)
	if wantsJSON(r) {
		if out.replayed {
			w.Header().Set("Idempotency-Replayed", "true")
		}
		writeJSON(w, http.StatusOK, json.RawMessage(g.rewriteJobJSON(out.body, rj)))
		return
	}
	http.Redirect(w, r, fmt.Sprintf("/jobs/%d", rj.gwID), http.StatusSeeOther)
}

// respondReplay answers a retried submission from its existing route: the
// current owner is asked for the job's state, and the response is rewritten
// to the gateway's ID with the replay marker set.
func (g *Gateway) respondReplay(w http.ResponseWriter, r *http.Request, rj *routedJob) {
	g.mu.Lock()
	worker, remoteID := rj.worker, rj.remoteID
	g.mu.Unlock()
	body, err := g.fetch(r.Context(), worker, fmt.Sprintf("/api/jobs/%d", remoteID))
	if err != nil {
		jsonError(w, http.StatusBadGateway, "job's worker is unreachable: "+err.Error())
		return
	}
	if wantsJSON(r) {
		w.Header().Set("Idempotency-Replayed", "true")
		writeJSON(w, http.StatusOK, json.RawMessage(g.rewriteJobJSON(body, rj)))
		return
	}
	http.Redirect(w, r, fmt.Sprintf("/jobs/%d", rj.gwID), http.StatusSeeOther)
}

// rewriteJobJSON re-addresses an upstream's job JSON to the gateway
// namespace: the id becomes the gateway's, the observed state is folded into
// the route, and the serving worker is surfaced for operators. A body that is
// not a JSON object passes through untouched.
func (g *Gateway) rewriteJobJSON(body []byte, rj *routedJob) []byte {
	var m map[string]any
	if json.Unmarshal(body, &m) != nil {
		return body
	}
	if _, ok := m["id"]; ok {
		m["id"] = rj.gwID
	}
	if state, _ := m["state"].(string); state != "" {
		g.markState(rj, state)
	}
	g.mu.Lock()
	worker, failovers := rj.worker, rj.failovers
	g.mu.Unlock()
	m["worker"] = workerLabel(worker)
	if failovers > 0 {
		m["failovers"] = failovers
	}
	out, err := json.Marshal(m)
	if err != nil {
		return body
	}
	return out
}

// handleRegister admits a worker announced over the API. Registration is
// idempotent; workers re-announce periodically so a restarted (stateless)
// gateway relearns its pool.
func (g *Gateway) handleRegister(w http.ResponseWriter, r *http.Request) {
	url, ok := announcedURL(w, r)
	if !ok {
		return
	}
	if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
		jsonError(w, http.StatusBadRequest, "worker url must be absolute (http:// or https://)")
		return
	}
	fresh := g.reg.Register(url)
	if fresh {
		g.log.Info("worker registered", "worker", url)
		// Probe immediately so the newcomer joins rotation without waiting a
		// full heartbeat interval.
		go g.probeWorker(url)
	}
	_, total := g.reg.Counts()
	writeJSON(w, http.StatusOK, map[string]any{"registered": true, "new": fresh, "workers": total})
}

// handleDeregister removes a worker from the pool (graceful scale-down; its
// routed jobs fail over like an eviction).
func (g *Gateway) handleDeregister(w http.ResponseWriter, r *http.Request) {
	url, ok := announcedURL(w, r)
	if !ok {
		return
	}
	removed := g.reg.Deregister(url)
	if removed {
		g.log.Info("worker deregistered", "worker", url)
		go g.failoverWorker(url)
	}
	_, total := g.reg.Counts()
	writeJSON(w, http.StatusOK, map[string]any{"removed": removed, "workers": total})
}

// announcedURL decodes the {"url": ...} body of a register or deregister
// call (see announce), answering 400 itself when it cannot.
func announcedURL(w http.ResponseWriter, r *http.Request) (string, bool) {
	var req struct {
		URL string `json:"url"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		jsonError(w, http.StatusBadRequest, "bad "+strings.TrimPrefix(r.URL.Path, "/cluster/")+" payload: "+err.Error())
		return "", false
	}
	return strings.TrimRight(strings.TrimSpace(req.URL), "/"), true
}

var gatewayHome = template.Must(template.New("gwhome").Parse(`<!doctype html>
<html><head><title>BWaveR gateway</title></head><body>
<h1>BWaveR cluster gateway</h1>
<p>{{.Healthy}}/{{.Total}} workers healthy{{if .Degraded}} — <b>degraded: serving locally</b>{{end}}.</p>
<h2>Routed jobs</h2>
<ul>{{range .Jobs}}<li><a href="/jobs/{{.ID}}">job {{.ID}}</a> — {{.State}} on {{.Worker}}</li>{{end}}</ul>
<p><a href="/demo">Run a synthetic demo job</a> · <a href="/api/health">health</a> · <a href="/api/stats">stats</a></p>
</body></html>`))

func (g *Gateway) handleHome(w http.ResponseWriter, r *http.Request) {
	type row struct {
		ID     int
		State  string
		Worker string
	}
	healthy, total := g.reg.Counts()
	data := struct {
		Healthy, Total int
		Degraded       bool
		Jobs           []row
	}{Healthy: healthy, Total: total, Degraded: healthy == 0}
	g.mu.Lock()
	for _, rj := range g.routes {
		state := rj.lastState
		if state == "" {
			state = "queued"
		}
		data.Jobs = append(data.Jobs, row{ID: rj.gwID, State: state, Worker: workerLabel(rj.worker)})
	}
	g.mu.Unlock()
	sort.Slice(data.Jobs, func(i, k int) bool { return data.Jobs[i].ID < data.Jobs[k].ID })
	var buf bytes.Buffer
	if err := gatewayHome.Execute(&buf, data); err != nil {
		g.log.Error("gateway home render failed", "err", err)
		http.Error(w, "internal server error", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(buf.Bytes())
}

// workerLabel names an upstream for payloads, metric labels and logs: a
// worker by its URL, the embedded fallback server as "local".
func workerLabel(upstream string) string {
	if upstream == localURL {
		return "local"
	}
	return upstream
}

// shortKey abbreviates a ring key for log lines.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// rewritePathID swaps one job ID for another in a path: the gateway's for the
// owner's on the way up, the owner's for the gateway's in a Location header
// on the way down. Every job-scoped route embeds the ID as the path segment
// after "/jobs/", so one targeted replace is exact.
func rewritePathID(path string, from, to int) string {
	return strings.Replace(path,
		fmt.Sprintf("/jobs/%d", from),
		fmt.Sprintf("/jobs/%d", to), 1)
}
