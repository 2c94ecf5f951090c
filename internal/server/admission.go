package server

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Admission control and graceful drain. Job creation (POST /jobs, GET /demo)
// passes three gates before a Job exists: the server must not be draining, a
// per-client token bucket must have a token, and the queue of jobs waiting
// for a pipeline slot must be below -max-queue. Rejections are structured
// JSON (429 for rate limiting, 503 for overload and drain) with a
// Retry-After header, counted per reason in /api/stats and
// bwaver_admission_rejected_total. Drain itself is the shutdown half:
// BeginDrain flips the server to reject-new-work mode while in-flight jobs
// finish, and Drain waits for them with a caller-supplied deadline.

// Admission rejection reasons, used as the metric/stats label.
const (
	reasonDraining    = "draining"
	reasonQueueFull   = "queue_full"
	reasonRateLimited = "rate_limited"
)

// DefaultMaxQueue bounds jobs waiting for a pipeline slot.
const DefaultMaxQueue = 64

// drainRetryAfter is the Retry-After hint on drain rejections: the client
// should find the replacement instance after the orchestrator's handover.
const drainRetryAfter = 10 * time.Second

// queueFullRetryAfter is the Retry-After hint on queue-full rejections.
const queueFullRetryAfter = 5 * time.Second

// admissionError is a structured rejection.
type admissionError struct {
	status     int
	reason     string
	msg        string
	retryAfter time.Duration
}

// writeAdmissionError renders the rejection as the /api error envelope plus
// machine-readable reason and retry hint, with the matching Retry-After
// header for plain HTTP clients.
func writeAdmissionError(w http.ResponseWriter, ae *admissionError) {
	secs := int(math.Ceil(ae.retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	writeJSON(w, ae.status, map[string]any{
		"error":               ae.msg,
		"reason":              ae.reason,
		"retry_after_seconds": secs,
	})
}

// tokenBucket is one client's rate-limit state.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// rateLimiter is a per-client token-bucket limiter keyed by client IP.
// Buckets refill at rate tokens/second up to burst; an idle client's bucket
// is pruned once the map grows past pruneAbove entries.
type rateLimiter struct {
	mu      sync.Mutex
	rate    float64
	burst   float64
	buckets map[string]*tokenBucket
}

// pruneAbove bounds the limiter's memory: past this many tracked clients,
// buckets idle long enough to have fully refilled are dropped (a full bucket
// is indistinguishable from a brand-new one).
const pruneAbove = 4096

func newRateLimiter(rate float64, burst int) *rateLimiter {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = int(math.Ceil(rate))
		if burst < 1 {
			burst = 1
		}
	}
	return &rateLimiter{rate: rate, burst: float64(burst), buckets: map[string]*tokenBucket{}}
}

// allow takes one token for key, reporting how long the client should wait
// when none is available. A nil limiter admits everything.
func (rl *rateLimiter) allow(key string, now time.Time) (ok bool, retryAfter time.Duration) {
	if rl == nil {
		return true, 0
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	b := rl.buckets[key]
	if b == nil {
		if len(rl.buckets) >= pruneAbove {
			rl.pruneLocked(now)
		}
		b = &tokenBucket{tokens: rl.burst, last: now}
		rl.buckets[key] = b
	} else {
		b.tokens = math.Min(rl.burst, b.tokens+now.Sub(b.last).Seconds()*rl.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / rl.rate * float64(time.Second))
}

// pruneLocked drops buckets whose elapsed idle time has refilled them.
func (rl *rateLimiter) pruneLocked(now time.Time) {
	for key, b := range rl.buckets {
		if now.Sub(b.last).Seconds()*rl.rate >= rl.burst {
			delete(rl.buckets, key)
		}
	}
}

// parseTrustedProxies parses the -trusted-proxies flag: a comma-separated
// list of CIDRs (bare IPs are accepted as /32 or /128).
func parseTrustedProxies(spec string) ([]*net.IPNet, error) {
	var nets []*net.IPNet
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !strings.Contains(part, "/") {
			ip := net.ParseIP(part)
			if ip == nil {
				return nil, fmt.Errorf("bad trusted proxy %q", part)
			}
			bits := 32
			if ip.To4() == nil {
				bits = 128
			}
			part = fmt.Sprintf("%s/%d", ip, bits)
		}
		_, n, err := net.ParseCIDR(part)
		if err != nil {
			return nil, fmt.Errorf("bad trusted proxy %q: %w", part, err)
		}
		nets = append(nets, n)
	}
	return nets, nil
}

func ipTrusted(nets []*net.IPNet, ip net.IP) bool {
	for _, n := range nets {
		if n.Contains(ip) {
			return true
		}
	}
	return false
}

// clientKey identifies a client for rate limiting. By default it is the
// connection's IP: X-Forwarded-For is attacker-controlled and is never
// trusted unless -trusted-proxies says the peer is ours. When the peer IS a
// trusted proxy, the chain is walked right to left past every trusted hop and
// the rightmost untrusted address is the client — rightmost because each hop
// appends, so everything left of it is whatever the client claimed.
func (s *Server) clientKey(r *http.Request) string {
	peer := r.RemoteAddr
	if host, _, err := net.SplitHostPort(peer); err == nil {
		peer = host
	}
	if len(s.trustedProxies) == 0 {
		return peer
	}
	ip := net.ParseIP(peer)
	if ip == nil || !ipTrusted(s.trustedProxies, ip) {
		return peer
	}
	hops := strings.Split(r.Header.Get("X-Forwarded-For"), ",")
	for i := len(hops) - 1; i >= 0; i-- {
		hop := strings.TrimSpace(hops[i])
		if hop == "" {
			continue
		}
		hopIP := net.ParseIP(hop)
		if hopIP == nil {
			// Garbage in the chain: fall back to the direct peer rather than
			// letting a client mint arbitrary bucket keys.
			return peer
		}
		if !ipTrusted(s.trustedProxies, hopIP) {
			return hop
		}
	}
	// Every hop was one of our proxies (or the header was empty): key on the
	// direct peer.
	return peer
}

// preAdmit runs the cheap gates — drain state and rate limit — before the
// handler touches the request body, so a shed request costs no upload
// parsing. The queue-depth gate runs later, atomically with job creation.
func (s *Server) preAdmit(r *http.Request) *admissionError {
	if s.Draining() {
		return &admissionError{
			status:     http.StatusServiceUnavailable,
			reason:     reasonDraining,
			msg:        "server is draining; not accepting new jobs",
			retryAfter: drainRetryAfter,
		}
	}
	if ok, retry := s.limiter.allow(s.clientKey(r), time.Now()); !ok {
		return &admissionError{
			status:     http.StatusTooManyRequests,
			reason:     reasonRateLimited,
			msg:        "client rate limit exceeded",
			retryAfter: retry,
		}
	}
	return nil
}

// holdsSlot reports whether a state occupies an admission queue slot: jobs
// waiting for a pipeline slot, and chunked jobs still feeding their payload
// (a half-uploaded job is queued work the server has committed to).
func holdsSlot(st JobState) bool {
	return st == StateQueued || st == StateUploading
}

// setJobStateLocked is the single place job state changes, so the queued
// counter that backs the -max-queue gate stays exact without scanning the
// jobs map; s.mu must be held.
func (s *Server) setJobStateLocked(job *Job, st JobState) {
	if holdsSlot(job.State) {
		s.queuedCount--
	}
	job.State = st
	if holdsSlot(st) {
		s.queuedCount++
	}
}

// jobSpec is everything admission needs to mint a job: the job's params
// plus the cross-process identity (idempotency key, request id) and the
// effective deadline budget resolved by effectiveTimeout.
type jobSpec struct {
	JobParams
	IdemKey   string
	RequestID string
	Timeout   time.Duration
}

// admitJob creates a job if the server is accepting work and the admission
// queue has room; the check and the creation share one critical section, so
// concurrent submits cannot overshoot -max-queue. The queue gate is the O(1)
// queuedCount counter maintained by setJobStateLocked — admission used to
// scan the whole retained-jobs map (terminal jobs included) per submit.
//
// spec.IdemKey, when non-empty, is reserved inside the same critical section:
// a concurrent duplicate submission gets the already-admitted job back
// (existing=true) instead of a second run. initial is StateQueued for buffered
// submissions (payload already in hand) or StateUploading for chunked ones;
// only queued admissions join the drain WaitGroup — uploading jobs hold a
// queue slot but must not block Drain, which would otherwise wait on a client
// that walked away.
func (s *Server) admitJob(spec jobSpec, initial JobState) (job *Job, existing bool, ae *admissionError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, &admissionError{
			status:     http.StatusServiceUnavailable,
			reason:     reasonDraining,
			msg:        "server is draining; not accepting new jobs",
			retryAfter: drainRetryAfter,
		}
	}
	if spec.IdemKey != "" {
		if id, ok := s.idemKeys[spec.IdemKey]; ok {
			if j := s.jobs[id]; j != nil {
				return j, true, nil
			}
		}
	}
	if s.cfg.MaxQueue > 0 && s.queuedCount >= s.cfg.MaxQueue {
		return nil, false, &admissionError{
			status:     http.StatusServiceUnavailable,
			reason:     reasonQueueFull,
			msg:        fmt.Sprintf("admission queue full (%d jobs waiting)", s.queuedCount),
			retryAfter: queueFullRetryAfter,
		}
	}
	job = &Job{
		ID: s.nextID, JobParams: spec.JobParams, IdemKey: spec.IdemKey, RequestID: spec.RequestID,
		timeout: spec.Timeout, Created: time.Now(),
	}
	s.setJobStateLocked(job, initial)
	s.nextID++
	s.jobs[job.ID] = job
	if spec.IdemKey != "" {
		s.idemKeys[spec.IdemKey] = job.ID
	}
	if initial != StateUploading {
		// Cover the admit→launch window in the drain WaitGroup: without this
		// a Drain racing a submit could observe zero in-flight jobs while an
		// admitted job is still being journaled. acceptAndLaunch drops it
		// once launch holds its own reference.
		s.wg.Add(1)
	}
	return job, false, nil
}

// releaseIdemKeyLocked drops a key reservation (admission failed after the
// fact, or the job is being evicted); s.mu must be held.
func (s *Server) releaseIdemKeyLocked(job *Job) {
	if job.IdemKey != "" && s.idemKeys[job.IdemKey] == job.ID {
		delete(s.idemKeys, job.IdemKey)
	}
}

// rejectAdmission records and renders a rejection.
func (s *Server) rejectAdmission(w http.ResponseWriter, ae *admissionError) {
	s.mu.Lock()
	s.admissionRejected[ae.reason]++
	s.mu.Unlock()
	s.mAdmissionRejected.With(ae.reason).Inc()
	writeAdmissionError(w, ae)
}

// BeginDrain stops job admission: new submissions are rejected with 503 and
// /api/health reports draining. In-flight and queued jobs keep running —
// pair with Drain to wait for them. Safe to call more than once.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		s.log.Info("drain started; rejecting new jobs")
	}
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain begins draining (if not already) and waits for every launched job to
// reach a terminal state, or for ctx. On timeout the remaining jobs are left
// running — their journal records are still accepted/running, so the next
// start re-queues them; the caller decides whether to exit anyway.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.log.Info("drain complete; all jobs terminal")
		return nil
	case <-ctx.Done():
		s.log.Warn("drain timed out; unfinished jobs remain journaled", "err", ctx.Err())
		return ctx.Err()
	}
}
