package fpga

// Host-side resilience: bounded retries with capped exponential backoff and
// deterministic jitter, each card's circuit breaker (resilience.Breaker,
// held by the Device), and the shared counters the server surfaces at
// /api/stats. The farm composes them (see farm.go); the server adds the
// final rung, a transparent CPU fallback.

import (
	"errors"
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
	// DefaultBreakerCooldown is how long an open breaker turns work away
	// before it turns half-open and admits work again.
	DefaultBreakerCooldown = 30 * time.Second

	// The retry backoff (Farm.jitter): 10 ms doubling per attempt up to
	// 1 s, scaled by a draw from a generator seeded with jitterSeed.
	retryBase  = 10 * time.Millisecond
	retryMax   = time.Second
	jitterSeed = 0x42fa7a11
)

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
