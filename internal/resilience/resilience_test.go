package resilience

import (
	"math"
	"testing"
	"time"
)

func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(2, time.Minute, func() time.Time { return now })

	if b.State() != Closed || !b.Allow() {
		t.Fatal("new breaker not closed")
	}
	b.Failure()
	if b.State() != Closed {
		t.Fatal("opened below threshold")
	}
	b.Failure()
	if b.State() != Open || b.Trips() != 1 {
		t.Fatalf("state %v trips %d after threshold", b.State(), b.Trips())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted work before cooldown")
	}

	// Past the cooldown the breaker turns half-open and admits work until
	// the first outcome.
	now = now.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but probe rejected")
	}
	if b.State() != halfOpen {
		t.Fatalf("state %v, want half-open", b.State())
	}
	// A failed probe reopens immediately.
	b.Failure()
	if b.State() != Open || b.Trips() != 2 {
		t.Fatalf("failed probe: state %v trips %d", b.State(), b.Trips())
	}

	// A successful probe closes and resets the failure count.
	now = now.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("second probe rejected")
	}
	b.Success()
	if b.State() != Closed || b.ConsecutiveFailures() != 0 {
		t.Fatalf("state %v failures %d after success", b.State(), b.ConsecutiveFailures())
	}
}

// TestBreakerNotify: the transition callback reports each state change with
// the correct old/new pair and never fires on a no-op.
func TestBreakerNotify(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(2, time.Minute, func() time.Time { return now })

	type hop struct{ from, to State }
	var got []hop
	b.SetNotify(func(from, to State) { got = append(got, hop{from, to}) })

	b.Failure() // 1/2: still closed, no transition
	b.Failure() // 2/2: closed -> open
	if b.Allow() {
		t.Fatal("open breaker admitted work before cooldown")
	}
	now = now.Add(2 * time.Minute)
	if !b.Allow() { // open -> half-open probe
		t.Fatal("cooled-down breaker rejected probe")
	}
	b.Success() // half-open -> closed
	b.Success() // already closed: no transition

	want := []hop{
		{Closed, Open},
		{Open, halfOpen},
		{halfOpen, Closed},
	}
	if len(got) != len(want) {
		t.Fatalf("transitions %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("transition %d = %v -> %v, want %v -> %v",
				i, got[i].from, got[i].to, want[i].from, want[i].to)
		}
	}
}

// TestBackoffDelay: the delay doubles from Base, never exceeds Max and never
// overflows, whatever the attempt.
func TestBackoffDelay(t *testing.T) {
	for _, b := range []Backoff{
		{Base: 10 * time.Millisecond, Max: time.Second},
		{Base: 50 * time.Millisecond, Max: 5 * time.Second},
		{Base: 3, Max: math.MaxInt64},
		{Base: time.Second, Max: time.Millisecond},
	} {
		for attempt := 1; attempt <= 200; attempt++ {
			want := time.Duration(math.Min(float64(b.Base)*math.Pow(2, float64(attempt-1)), float64(b.Max)))
			if attempt > 62 || want < 0 {
				want = b.Max
			}
			if got := b.Delay(attempt); got != want {
				t.Fatalf("%+v attempt %d: delay %v, want %v", b, attempt, got, want)
			}
		}
	}
}

// The fuzz input: byte 0 picks the threshold (1–4, low two bits) and the
// cooldown (0–63 ticks); every further byte is one operation, its low two
// bits the kind and, for an advance, its high six bits the ticks.
const (
	opAllow = iota
	opSuccess
	opFailure
	opAdvance
)

const tick = 100 * time.Millisecond

// refBreaker is the breaker rule written out plainly: the reference
// FuzzBreaker holds a card's breaker to.
type refBreaker struct {
	threshold   int
	cooldown    time.Duration
	state       State
	consecutive int
	openedAt    time.Time
	trips       uint64
}

func (r *refBreaker) allow(now time.Time) bool {
	if r.state == Open && now.Sub(r.openedAt) < r.cooldown {
		return false
	}
	if r.state == Open {
		r.state = halfOpen
	}
	return true
}

func (r *refBreaker) success() { r.state, r.consecutive = Closed, 0 }

func (r *refBreaker) failure(now time.Time) {
	r.consecutive++
	if r.state == halfOpen || r.state == Closed && r.consecutive >= r.threshold {
		r.state, r.openedAt = Open, now
		r.trips++
	}
}

// refWorker is a cluster worker's two-state rule as the registry applied it
// before it held a Breaker: every failure counts a miss and evicts at the
// threshold; every success clears the misses and re-admits only after the
// cooldown; a failure while evicted does not restart the cooldown.
type refWorker struct {
	evicted                 bool
	misses                  int
	openedAt                time.Time
	evictions, readmissions uint64
	threshold               int
	cooldown                time.Duration
}

func (w *refWorker) report(ok bool, now time.Time) {
	if ok {
		w.misses = 0
		if w.evicted && now.Sub(w.openedAt) >= w.cooldown {
			w.evicted = false
			w.readmissions++
		}
		return
	}
	w.misses++
	if !w.evicted && w.misses >= w.threshold {
		w.evicted, w.openedAt = true, now
		w.evictions++
	}
}

// FuzzBreaker drives Breaker through sequences of Allow, Success, Failure
// and clock advances in its two uses and checks every step against a
// reference: a card's breaker (every call direct, notify hook attached)
// against refBreaker, and a worker's (outcomes through Report, as the
// cluster registry folds heartbeats and forwards) against refWorker.
func FuzzBreaker(f *testing.F) {
	adv := func(ticks byte) byte { return ticks<<2 | opAdvance }
	cfg := func(threshold, cooldownTicks byte) byte { return cooldownTicks<<2 | (threshold - 1) }
	// TestBreakerStateMachine, a minute scaled to 10 ticks.
	f.Add([]byte{cfg(2, 10), opAllow, opFailure, opFailure, opAllow, adv(20), opAllow,
		opFailure, adv(20), opAllow, opSuccess})
	// TestBreakerNotify.
	f.Add([]byte{cfg(2, 10), opFailure, opFailure, opAllow, adv(20), opAllow, opSuccess, opSuccess})
	// TestRegistryEvictionAndReadmission: a second is 10 ticks.
	f.Add([]byte{cfg(2, 10), opFailure, opFailure, opFailure, adv(5), opSuccess, adv(10), opSuccess})
	// TestRegistryForwardFailuresEvict.
	f.Add([]byte{cfg(3, 10), opFailure, opFailure, opFailure, opAllow})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		threshold, cooldown := int(data[0]&3)+1, time.Duration(data[0]>>2)*tick
		ops := data[1:]

		now := time.Unix(1000, 0)
		clock := func() time.Time { return now }
		card := NewBreaker(threshold, cooldown, clock)
		ref := refBreaker{threshold: threshold, cooldown: cooldown}
		type hop struct{ from, to State }
		var hops, wantHops []hop
		card.SetNotify(func(from, to State) { hops = append(hops, hop{from, to}) })

		worker := NewBreaker(threshold, cooldown, clock)
		refW := refWorker{threshold: threshold, cooldown: cooldown}
		var evictions, readmissions uint64

		for i, op := range ops {
			before := ref.state
			switch op & 3 {
			case opAllow:
				if got, want := card.Allow(), ref.allow(now); got != want {
					t.Fatalf("op %d: Allow = %v, reference %v", i, got, want)
				}
			case opSuccess:
				card.Success()
				ref.success()
			case opFailure:
				card.Failure()
				ref.failure(now)
			case opAdvance:
				now = now.Add(time.Duration(op>>2) * tick)
			}
			if ref.state != before {
				wantHops = append(wantHops, hop{before, ref.state})
			}
			if card.State() != ref.state || card.ConsecutiveFailures() != ref.consecutive || card.Trips() != ref.trips {
				t.Fatalf("op %d: card breaker %v/%d failures/%d trips, reference %v/%d/%d", i,
					card.State(), card.ConsecutiveFailures(), card.Trips(), ref.state, ref.consecutive, ref.trips)
			}
			if len(hops) != len(wantHops) || len(hops) > 0 && hops[len(hops)-1] != wantHops[len(wantHops)-1] {
				t.Fatalf("op %d: notify saw %v, reference %v", i, hops, wantHops)
			}

			if kind := op & 3; kind == opSuccess || kind == opFailure {
				from, to := worker.Report(kind == opSuccess)
				refW.report(kind == opSuccess, now)
				if from != to && to == Open {
					evictions++
				} else if from != to {
					readmissions++
				}
			}
			want := Closed
			if refW.evicted {
				want = Open
			}
			if worker.State() != want || worker.ConsecutiveFailures() != refW.misses ||
				worker.Trips() != refW.evictions || evictions != refW.evictions || readmissions != refW.readmissions {
				t.Fatalf("op %d: worker breaker %v/%d misses/%d trips/%d evictions/%d readmissions, reference %v/%d/%d/%d", i,
					worker.State(), worker.ConsecutiveFailures(), worker.Trips(), evictions, readmissions,
					want, refW.misses, refW.evictions, refW.readmissions)
			}
		}
	})
}
