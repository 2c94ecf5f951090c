package cluster

import (
	"sort"
	"sync"
	"time"

	"bwaver/internal/resilience"
)

// Per-worker health tracking. Each worker holds a resilience.Breaker, the
// type each FPGA card holds too: consecutive missed heartbeats (or failed
// forwards — a connection refused is evidence of death too) open it, which
// evicts the worker from routing without removing it from the ring, so its
// keys come straight back to it when the cooldown lapses and a heartbeat
// succeeds again (re-admission). Outcomes reach the breaker through
// Breaker.Report, so a worker reads only closed or open.

// HealthReport is the slice of a worker's /api/health payload the gateway
// uses for admission decisions.
type HealthReport struct {
	Status       string `json:"status"`
	Draining     bool   `json:"draining"`
	QueueDepth   int    `json:"queue_depth"`
	JobsInFlight int    `json:"jobs_in_flight"`
}

// WorkerHealth is one worker's registry snapshot, served in the gateway's
// /api/health and /api/stats.
type WorkerHealth struct {
	URL               string    `json:"url"`
	Breaker           string    `json:"breaker"`
	Healthy           bool      `json:"healthy"`
	Draining          bool      `json:"draining"`
	QueueDepth        int       `json:"queue_depth"`
	JobsInFlight      int       `json:"jobs_in_flight"`
	ConsecutiveMisses int       `json:"consecutive_misses"`
	BreakerTrips      uint64    `json:"breaker_trips"`
	LastSeen          time.Time `json:"last_seen"`
	LastError         string    `json:"last_error,omitempty"`
}

// worker is the registry's mutable per-node state; guarded by Registry.mu.
type worker struct {
	url          string
	breaker      *resilience.Breaker
	lastSeen     time.Time
	lastErr      string
	draining     bool
	queueDepth   int
	jobsInFlight int
}

// Registry tracks the worker pool: ring membership, per-worker breaker
// state, and the latest heartbeat payload. Safe for concurrent use.
type Registry struct {
	mu            sync.Mutex
	ring          *Ring
	workers       map[string]*worker
	missThreshold int
	cooldown      time.Duration
	evictions     uint64
	readmissions  uint64
	// onEvict runs (outside the lock) when a worker's breaker opens; the
	// gateway hooks its failover sweep here.
	onEvict func(url string)
	// now is replaceable so tests can drive the cooldown clock.
	now func() time.Time
}

// newRegistry creates an empty registry (the gateway passes its Config's
// defaulted MissThreshold and Cooldown).
func newRegistry(vnodes, missThreshold int, cooldown time.Duration) *Registry {
	return &Registry{
		ring:          NewRing(vnodes),
		workers:       map[string]*worker{},
		missThreshold: missThreshold,
		cooldown:      cooldown,
		now:           time.Now,
	}
}

// Register adds a worker to the pool and the ring; re-registering a known
// worker is a no-op that keeps its breaker state (a periodic re-register is
// the workers' way of surviving a gateway restart, not a health claim). It
// reports whether the worker was new.
func (rg *Registry) Register(url string) bool {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	if _, ok := rg.workers[url]; ok {
		return false
	}
	rg.workers[url] = &worker{
		url:      url,
		breaker:  resilience.NewBreaker(rg.missThreshold, rg.cooldown, rg.now),
		lastSeen: rg.now(),
	}
	rg.ring.Add(url)
	return true
}

// Deregister removes a worker from the pool and the ring.
func (rg *Registry) Deregister(url string) bool {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	if _, ok := rg.workers[url]; !ok {
		return false
	}
	delete(rg.workers, url)
	rg.ring.Remove(url)
	return true
}

// Workers returns every registered worker URL, sorted.
func (rg *Registry) Workers() []string {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	out := make([]string, 0, len(rg.workers))
	for url := range rg.workers {
		out = append(out, url)
	}
	sort.Strings(out)
	return out
}

// ReportHeartbeat folds one heartbeat probe result into the worker's breaker
// and admission state. err == nil is a successful probe carrying hr.
func (rg *Registry) ReportHeartbeat(url string, hr HealthReport, err error) {
	if err == nil {
		rg.reportOutcome(url, true, "", &hr)
	} else {
		rg.reportOutcome(url, false, err.Error(), nil)
	}
}

// ReportForward folds a forward attempt's transport outcome into the breaker:
// a network failure counts like a missed heartbeat (so a dead worker is
// evicted after missThreshold failed forwards without waiting for the
// heartbeat loop), and a successful round trip resets the miss count.
func (rg *Registry) ReportForward(url string, ok bool, errMsg string) {
	rg.reportOutcome(url, ok, errMsg, nil)
}

// reportOutcome is the single breaker transition point: Breaker.Report under
// the registry lock, so a success closes an open breaker only after the
// cooldown has lapsed — a worker that flaps within the cooldown stays
// evicted. The eviction callback runs outside the lock.
func (rg *Registry) reportOutcome(url string, ok bool, errMsg string, hr *HealthReport) {
	rg.mu.Lock()
	w := rg.workers[url]
	if w == nil {
		rg.mu.Unlock()
		return
	}
	if ok {
		w.lastSeen = rg.now()
		w.lastErr = ""
		if hr != nil {
			w.draining = hr.Draining
			w.queueDepth = hr.QueueDepth
			w.jobsInFlight = hr.JobsInFlight
		}
	} else {
		w.lastErr = errMsg
	}
	from, to := w.breaker.Report(ok)
	evicted := from != to && to == resilience.Open
	if evicted {
		rg.evictions++
	} else if from != to {
		rg.readmissions++
	}
	onEvict := rg.onEvict
	rg.mu.Unlock()
	if evicted && onEvict != nil {
		onEvict(url)
	}
}

// inRotation reports whether w takes routed work.
func (w *worker) inRotation() bool {
	return w.breaker.State() == resilience.Closed && !w.draining
}

// Healthy reports whether a worker is in rotation (registered, breaker
// closed, not draining).
func (rg *Registry) Healthy(url string) bool {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	w := rg.workers[url]
	return w != nil && w.inRotation()
}

// Candidates returns the workers eligible to run a job with the given ring
// key, in ring order: the primary first, then the failover replicas. Evicted
// and draining workers are skipped — not removed from the ring — so their
// keys return to them on re-admission.
func (rg *Registry) Candidates(key string) []string {
	ordered := rg.ring.Lookup(key, -1)
	rg.mu.Lock()
	defer rg.mu.Unlock()
	out := make([]string, 0, len(ordered))
	for _, url := range ordered {
		if w := rg.workers[url]; w != nil && w.inRotation() {
			out = append(out, url)
		}
	}
	return out
}

// Counts returns how many workers are in rotation and how many are
// registered.
func (rg *Registry) Counts() (healthy, total int) {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	for _, w := range rg.workers {
		if w.inRotation() {
			healthy++
		}
	}
	return healthy, len(rg.workers)
}

// Snapshot returns every worker's health, sorted by URL.
func (rg *Registry) Snapshot() []WorkerHealth {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	out := make([]WorkerHealth, 0, len(rg.workers))
	for _, w := range rg.workers {
		out = append(out, WorkerHealth{
			URL:               w.url,
			Breaker:           w.breaker.State().String(),
			Healthy:           w.inRotation(),
			Draining:          w.draining,
			QueueDepth:        w.queueDepth,
			JobsInFlight:      w.jobsInFlight,
			ConsecutiveMisses: w.breaker.ConsecutiveFailures(),
			BreakerTrips:      w.breaker.Trips(),
			LastSeen:          w.lastSeen,
			LastError:         w.lastErr,
		})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].URL < out[k].URL })
	return out
}

// Totals returns the registry's lifetime eviction and re-admission counts.
func (rg *Registry) Totals() (evictions, readmissions uint64) {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	return rg.evictions, rg.readmissions
}
