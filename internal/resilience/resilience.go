// Package resilience holds the failure primitives the FPGA farm and the
// cluster gateway share: a circuit breaker (one per card, one per worker)
// and a capped exponential backoff.
package resilience

import (
	"sync"
	"time"
)

// State is a breaker's position; the values are bwaver_breaker_state's.
type State int

const (
	Closed State = iota
	Open
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "closed"
}

// Breaker is a circuit breaker: threshold consecutive failures open it;
// once the cooldown has lapsed, Allow turns it half-open and admits every
// caller until the first outcome closes it (success) or reopens it
// (failure). Safe for concurrent use.
type Breaker struct {
	mu          sync.Mutex
	threshold   int
	cooldown    time.Duration
	now         func() time.Time
	state       State
	consecutive int
	openedAt    time.Time
	trips       uint64
	notify      func(from, to State)
}

// NewBreaker creates a closed breaker whose cooldown reads the clock now;
// nil means time.Now.
func NewBreaker(threshold int, cooldown time.Duration, now func() time.Time) *Breaker {
	if now == nil {
		now = time.Now
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// Configure updates whichever of threshold and cooldown is positive without
// resetting the state, so a new owner cannot mask an open breaker.
func (b *Breaker) Configure(threshold int, cooldown time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if threshold > 0 {
		b.threshold = threshold
	}
	if cooldown > 0 {
		b.cooldown = cooldown
	}
}

// SetNotify registers fn to run after every state transition, outside the
// breaker's lock, so it may query the breaker; it must tolerate concurrent
// calls. nil removes it.
func (b *Breaker) SetNotify(fn func(from, to State)) {
	b.mu.Lock()
	b.notify = fn
	b.mu.Unlock()
}

// unlock releases b and runs the notify hook if the state left from.
func (b *Breaker) unlock(from State) {
	to, fn := b.state, b.notify
	b.mu.Unlock()
	if fn != nil && from != to {
		fn(from, to)
	}
}

// Allow reports whether the breaker admits work.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	from := b.state
	if from == Open {
		if b.now().Sub(b.openedAt) < b.cooldown {
			b.mu.Unlock()
			return false
		}
		b.state = HalfOpen
	}
	b.unlock(from)
	return true
}

// Success records a successful run, closing the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	from := b.state
	b.consecutive, b.state = 0, Closed
	b.unlock(from)
}

// Failure records a failed run. It opens the breaker at the threshold, or at
// once when half-open; while open it only counts, so the cooldown runs from
// the opening.
func (b *Breaker) Failure() {
	b.mu.Lock()
	from := b.state
	b.consecutive++
	if from == HalfOpen || from == Closed && b.consecutive >= b.threshold {
		b.state, b.openedAt = Open, b.now()
		b.trips++
	}
	b.unlock(from)
}

// Report folds one outcome of a probed pool member into b and returns the
// position before and after. A failure always counts; a success is the
// probe, counted only when Allow admits it, so inside the cooldown it ends
// the run of failures but leaves the breaker open, and the breaker never
// rests half-open. Callers serialise Report for one breaker.
func (b *Breaker) Report(ok bool) (from, to State) {
	from = b.State()
	switch {
	case !ok:
		b.Failure()
	case b.Allow():
		b.Success()
	default:
		b.mu.Lock()
		b.consecutive = 0
		b.mu.Unlock()
	}
	return from, b.State()
}

// State returns the breaker's position.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// ConsecutiveFailures returns the current run of failures.
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

// Backoff is a capped exponential delay; callers add their own jitter and
// sleep it or charge it.
type Backoff struct {
	Base, Max time.Duration
}

// Delay is the nominal wait after the attempt-th failure (1-based),
// min(Base·2^(attempt-1), Max), computed without overflow.
func (b Backoff) Delay(attempt int) time.Duration {
	d := b.Base
	for i := 1; i < attempt && 0 < d && d < b.Max; i++ {
		if d > b.Max-d {
			return b.Max
		}
		d *= 2
	}
	return min(d, b.Max)
}
