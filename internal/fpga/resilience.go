package fpga

// Host-side resilience primitives: retry with exponential backoff and
// deterministic jitter, a per-device circuit breaker, and the shared
// counters the server surfaces at /api/stats. The farm composes them (see
// farm.go); the server adds the final rung, a transparent CPU fallback.

import (
	"errors"
	"math"
	"sync"
	"time"
)

// Resilience defaults.
const (
	// DefaultMaxAttempts is how many times a shard is tried on one device
	// before it is redistributed.
	DefaultMaxAttempts = 3
	// DefaultBreakerThreshold is how many consecutive failures open a
	// device's circuit breaker.
	DefaultBreakerThreshold = 5
	// DefaultBreakerCooldown is how long an open breaker waits before
	// letting one probe run through (half-open).
	DefaultBreakerCooldown = 30 * time.Second
)

// RetryPolicy bounds per-device retries. Backoff grows exponentially from
// BaseDelay by Multiplier up to MaxDelay, with deterministic jitter in
// [1/2, 1] of the computed delay. The simulator does not sleep: the accrued
// backoff is charged to the run's Profile.RetryBackoff on the modeled
// timeline, keeping tests fast and the fault sequence reproducible.
type RetryPolicy struct {
	// MaxAttempts per device per shard; default DefaultMaxAttempts.
	MaxAttempts int
	// BaseDelay is the first retry's nominal backoff; default 10ms.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth; default 1s.
	MaxDelay time.Duration
	// Multiplier is the exponential growth factor; default 2.
	Multiplier float64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.Multiplier <= 1 {
		p.Multiplier = 2
	}
	return p
}

// delay returns the backoff before retrying after the attempt-th failure
// (1-based), drawing jitter deterministically from rng.
func (p RetryPolicy) delay(attempt int, rng *uint64) time.Duration {
	d := float64(p.BaseDelay) * math.Pow(p.Multiplier, float64(attempt-1))
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	return time.Duration(d * (0.5 + 0.5*rand01(rng)))
}

// BreakerState is a circuit breaker's position.
type BreakerState int

// The classic three states.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is a per-device circuit breaker: after threshold consecutive
// failures it opens and the farm stops routing shards to the device; after
// the cooldown it lets one probe run through (half-open), closing again on
// success and re-opening on failure. Devices own their breaker, so farms
// programmed with different indexes over the same cards share health state.
type Breaker struct {
	mu          sync.Mutex
	threshold   int
	cooldown    time.Duration
	now         func() time.Time // injectable clock for tests
	state       BreakerState
	consecutive int
	openedAt    time.Time
	trips       uint64
	notify      func(from, to BreakerState)
}

func newBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// configure updates the thresholds without resetting accumulated state, so a
// new farm over already-running devices cannot mask an open breaker.
func (b *Breaker) configure(threshold int, cooldown time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if threshold > 0 {
		b.threshold = threshold
	}
	if cooldown > 0 {
		b.cooldown = cooldown
	}
}

// SetNotify registers fn to run after every state transition, with the old
// and new states. The callback fires outside the breaker's lock, so it may
// safely query the breaker or record metrics; it must tolerate concurrent
// invocation. Passing nil removes the callback.
func (b *Breaker) SetNotify(fn func(from, to BreakerState)) {
	b.mu.Lock()
	b.notify = fn
	b.mu.Unlock()
}

// fire invokes the transition callback outside the lock when the state
// actually changed. Callers pass the values captured under b.mu.
func fireNotify(fn func(from, to BreakerState), from, to BreakerState) {
	if fn != nil && from != to {
		fn(from, to)
	}
}

// Allow reports whether the device may take work. An open breaker past its
// cooldown transitions to half-open and admits one probe.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	from, fn := b.state, b.notify
	ok := true
	switch b.state {
	case BreakerOpen:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.state = BreakerHalfOpen
		} else {
			ok = false
		}
	}
	to := b.state
	b.mu.Unlock()
	fireNotify(fn, from, to)
	return ok
}

// Success records a successful run, closing the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	from, fn := b.state, b.notify
	b.consecutive = 0
	b.state = BreakerClosed
	b.mu.Unlock()
	fireNotify(fn, from, BreakerClosed)
}

// Failure records a failed run, opening the breaker at the threshold (or
// immediately when a half-open probe fails).
func (b *Breaker) Failure() {
	b.mu.Lock()
	from, fn := b.state, b.notify
	b.consecutive++
	switch b.state {
	case BreakerHalfOpen:
		b.open()
	case BreakerClosed:
		if b.consecutive >= b.threshold {
			b.open()
		}
	}
	to := b.state
	b.mu.Unlock()
	fireNotify(fn, from, to)
}

func (b *Breaker) open() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.trips++
}

// State returns the breaker's current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// ConsecutiveFailures returns the current consecutive-failure count.
func (b *Breaker) ConsecutiveFailures() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.consecutive
}

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// ResilienceStats is a point-in-time snapshot of the resilience counters,
// shaped for /api/stats.
type ResilienceStats struct {
	// Faults counts device failures the farm observed, by stage name.
	Faults map[string]uint64 `json:"faults"`
	// Retries counts shard attempts repeated on the same device.
	Retries uint64 `json:"retries"`
	// Redistributed counts shards handed to a different device after their
	// primary exhausted its attempts or tripped its breaker.
	Redistributed uint64 `json:"redistributed_shards"`
	// ChecksumMismatches counts result batches the host rejected.
	ChecksumMismatches uint64 `json:"checksum_mismatches"`
	// CrossCheckFailures counts sampled CPU cross-check rejections.
	CrossCheckFailures uint64 `json:"crosscheck_failures"`
	// Exhausted counts runs that failed on every available device.
	Exhausted uint64 `json:"exhausted_runs"`
	// Fallbacks counts jobs the server transparently reran on the CPU.
	Fallbacks uint64 `json:"fallbacks"`
}

// StatsRecorder accumulates resilience counters. One recorder can be shared
// by many farms (the server shares one across all cached indexes) and is
// safe for concurrent use.
type StatsRecorder struct {
	mu sync.Mutex
	s  ResilienceStats
}

// NewStatsRecorder creates an empty recorder.
func NewStatsRecorder() *StatsRecorder {
	return &StatsRecorder{s: ResilienceStats{Faults: map[string]uint64{}}}
}

func (r *StatsRecorder) fault(stage string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.Faults[stage]++
}

func (r *StatsRecorder) retry()         { r.mu.Lock(); r.s.Retries++; r.mu.Unlock() }
func (r *StatsRecorder) redistributed() { r.mu.Lock(); r.s.Redistributed++; r.mu.Unlock() }
func (r *StatsRecorder) checksum()      { r.mu.Lock(); r.s.ChecksumMismatches++; r.mu.Unlock() }
func (r *StatsRecorder) crosscheck()    { r.mu.Lock(); r.s.CrossCheckFailures++; r.mu.Unlock() }
func (r *StatsRecorder) exhausted()     { r.mu.Lock(); r.s.Exhausted++; r.mu.Unlock() }

// RecordFallback counts a job the server reran on the CPU baseline.
func (r *StatsRecorder) RecordFallback() { r.mu.Lock(); r.s.Fallbacks++; r.mu.Unlock() }

// Snapshot returns a copy of the counters.
func (r *StatsRecorder) Snapshot() ResilienceStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.s
	out.Faults = make(map[string]uint64, len(r.s.Faults))
	for k, v := range r.s.Faults {
		out.Faults[k] = v
	}
	return out
}

// ErrNoHealthyDevices is returned when every device in the farm is either
// breaker-open or has exhausted its retries for the run.
var ErrNoHealthyDevices = errors.New("fpga: no healthy devices available")

// errCrossCheckFailed marks a sampled CPU cross-check rejection; retryable,
// like corruption, because a re-run re-transfers the batch.
var errCrossCheckFailed = errors.New("fpga: sampled CPU cross-check failed")

// IsDeviceFailure reports whether err stems from the simulated device layer
// — an injected fault, corrupted results, or exhausted/unhealthy devices —
// as opposed to bad input or cancellation. This is the condition under which
// the server's transparent CPU fallback is sound.
func IsDeviceFailure(err error) bool {
	var fe *FaultError
	return errors.As(err, &fe) ||
		errors.Is(err, ErrNoHealthyDevices) ||
		errors.Is(err, ErrResultCorrupt) ||
		errors.Is(err, errCrossCheckFailed)
}

// isRetryableFault reports whether the resilience layer should retry after
// err. Context cancellation and input validation errors are not retryable.
func isRetryableFault(err error) bool {
	var fe *FaultError
	return errors.As(err, &fe) ||
		errors.Is(err, ErrResultCorrupt) ||
		errors.Is(err, errCrossCheckFailed)
}

// DeviceHealth is one device's breaker snapshot, for /api/health.
type DeviceHealth struct {
	Device              int    `json:"device"`
	Breaker             string `json:"breaker"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	BreakerTrips        uint64 `json:"breaker_trips"`
}

// Health snapshots the breaker of every card in devices, numbered by
// position.
func Health(devices []*Device) []DeviceHealth {
	out := make([]DeviceHealth, len(devices))
	for i, d := range devices {
		out[i] = DeviceHealth{
			Device:              i,
			Breaker:             d.breaker.State().String(),
			ConsecutiveFailures: d.breaker.ConsecutiveFailures(),
			BreakerTrips:        d.breaker.Trips(),
		}
	}
	return out
}
