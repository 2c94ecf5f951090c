package fpga

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

func TestRetryPolicyDelay(t *testing.T) {
	p := RetryPolicy{}.withDefaults()
	rng := uint64(7)
	prevCap := time.Duration(0)
	for attempt := 1; attempt <= 10; attempt++ {
		nominal := p.BaseDelay * (1 << (attempt - 1))
		if nominal > p.MaxDelay {
			nominal = p.MaxDelay
		}
		d := p.delay(attempt, &rng)
		if d < nominal/2 || d > nominal {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, d, nominal/2, nominal)
		}
		if nominal < prevCap {
			t.Errorf("attempt %d: nominal cap shrank", attempt)
		}
		prevCap = nominal
	}
	// Jitter is deterministic: the same rng state reproduces the same delay.
	r1, r2 := uint64(123), uint64(123)
	if p.delay(3, &r1) != p.delay(3, &r2) {
		t.Error("jitter not deterministic")
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := newBreaker(2, time.Minute)
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }

	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("new breaker not closed")
	}
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("opened below threshold")
	}
	b.Failure()
	if b.State() != BreakerOpen || b.Trips() != 1 {
		t.Fatalf("state %v trips %d after threshold", b.State(), b.Trips())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted work before cooldown")
	}

	// Past the cooldown one probe gets through (half-open).
	now = now.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but probe rejected")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", b.State())
	}
	// A failed probe reopens immediately.
	b.Failure()
	if b.State() != BreakerOpen || b.Trips() != 2 {
		t.Fatalf("failed probe: state %v trips %d", b.State(), b.Trips())
	}

	// A successful probe closes and resets the failure count.
	now = now.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("second probe rejected")
	}
	b.Success()
	if b.State() != BreakerClosed || b.ConsecutiveFailures() != 0 {
		t.Fatalf("state %v failures %d after success", b.State(), b.ConsecutiveFailures())
	}
}

func TestFarmRedistributesAroundDeadDevice(t *testing.T) {
	ix := buildIndex(t, 8000)
	reads := simReads(t, ix, 300, 35, 0.7)
	plan, err := ParseFaultPlan("seed=5,persistent=0:kernel")
	if err != nil {
		t.Fatal(err)
	}
	devices := make([]*Device, 2)
	for i := range devices {
		devices[i], _ = NewDevice(Config{})
		devices[i].EnableFaults(plan, i)
	}
	rec := NewStatsRecorder()
	farm, err := NewFarmOpts(devices, ix, FarmOptions{
		Retry:            RetryPolicy{MaxAttempts: 3},
		BreakerThreshold: 3,
		Recorder:         rec,
	})
	if err != nil {
		t.Fatal(err)
	}

	run, err := farm.MapReadsOpts(reads, MapRunOptions{})
	if err != nil {
		t.Fatalf("farm with one healthy device failed: %v", err)
	}
	for i, read := range reads {
		want := ix.MapRead(read)
		if run.Results[i].Forward != want.Forward || run.Results[i].Reverse != want.Reverse {
			t.Fatalf("read %d diverges from CPU after redistribution", i)
		}
	}
	if run.Profile.RetryBackoff <= 0 {
		t.Error("no modeled retry backoff charged")
	}

	stats := farm.Stats()
	if stats.Faults["kernel"] == 0 || stats.Retries == 0 || stats.Redistributed == 0 {
		t.Errorf("stats = %+v, want kernel faults, retries, and redistribution", stats)
	}
	// Three consecutive failures at threshold 3: device 0's breaker is open.
	if devices[0].Breaker().State() != BreakerOpen {
		t.Errorf("device 0 breaker %v, want open", devices[0].Breaker().State())
	}
	if devices[1].Breaker().State() != BreakerClosed {
		t.Errorf("device 1 breaker %v, want closed", devices[1].Breaker().State())
	}

	// The next run skips the broken card entirely: no new kernel faults.
	before := farm.Stats().Faults["kernel"]
	if _, err := farm.MapReadsOpts(reads[:50], MapRunOptions{}); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if after := farm.Stats().Faults["kernel"]; after != before {
		t.Errorf("broken device still took work: faults %d -> %d", before, after)
	}
	health := Health(devices)
	if len(health) != 2 || health[0].Breaker != "open" || health[0].BreakerTrips == 0 {
		t.Errorf("health = %+v", health)
	}
}

func TestFarmAllDevicesBroken(t *testing.T) {
	ix := buildIndex(t, 4000)
	reads := simReads(t, ix, 50, 30, 1)
	plan, err := ParseFaultPlan("seed=5,persistent=0:kernel,persistent=1:kernel")
	if err != nil {
		t.Fatal(err)
	}
	devices := make([]*Device, 2)
	for i := range devices {
		devices[i], _ = NewDevice(Config{})
		devices[i].EnableFaults(plan, i)
	}
	farm, err := NewFarmOpts(devices, ix, FarmOptions{Retry: RetryPolicy{MaxAttempts: 2}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = farm.MapReadsOpts(reads, MapRunOptions{})
	if err == nil {
		t.Fatal("farm with no working devices succeeded")
	}
	if !errors.Is(err, ErrNoHealthyDevices) {
		t.Errorf("error = %v, want ErrNoHealthyDevices", err)
	}
	if !IsDeviceFailure(err) {
		t.Error("exhausted farm error not classified as device failure")
	}
	if farm.Stats().Exhausted == 0 {
		t.Error("exhausted run not counted")
	}
}

func TestFarmRecoversFromCorruption(t *testing.T) {
	ix := buildIndex(t, 6000)
	reads := simReads(t, ix, 200, 35, 0.8)
	plan, err := ParseFaultPlan("seed=9,persistent=0:corrupt")
	if err != nil {
		t.Fatal(err)
	}
	devices := make([]*Device, 2)
	for i := range devices {
		devices[i], _ = NewDevice(Config{})
		devices[i].EnableFaults(plan, i)
	}
	farm, err := NewFarmOpts(devices, ix, FarmOptions{Retry: RetryPolicy{MaxAttempts: 2}, VerifyStride: 8})
	if err != nil {
		t.Fatal(err)
	}
	run, err := farm.MapReadsOpts(reads, MapRunOptions{})
	if err != nil {
		t.Fatalf("farm failed to recover from corruption: %v", err)
	}
	if farm.Stats().ChecksumMismatches == 0 {
		t.Errorf("stats = %+v, want checksum mismatches", farm.Stats())
	}
	for i, read := range reads {
		want := ix.MapRead(read)
		if run.Results[i].Forward != want.Forward || run.Results[i].Reverse != want.Reverse {
			t.Fatalf("read %d: corrupted result leaked through verification", i)
		}
	}
}

func TestFarmTwoPassUnderFaults(t *testing.T) {
	ix := buildIndex(t, 6000)
	reads := simReads(t, ix, 200, 35, 0.6)
	plan, err := ParseFaultPlan("seed=11,persistent=0:result")
	if err != nil {
		t.Fatal(err)
	}
	devices := make([]*Device, 2)
	for i := range devices {
		devices[i], _ = NewDevice(Config{})
		devices[i].EnableFaults(plan, i)
	}
	farm, err := NewFarmOpts(devices, ix, FarmOptions{Retry: RetryPolicy{MaxAttempts: 2}})
	if err != nil {
		t.Fatal(err)
	}
	run, err := farm.MapReadsTwoPassOpts(reads, 1, MapRunOptions{})
	if err != nil {
		t.Fatalf("two-pass farm run failed: %v", err)
	}
	if len(run.Results) != len(reads) {
		t.Fatalf("%d results for %d reads", len(run.Results), len(reads))
	}
	// Compare against a clean single card.
	clean, _ := NewDevice(Config{})
	k, _ := clean.Program(ix)
	want, err := runKernel(k, twoPassWork{1}, reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if run.Rescued != want.Rescued {
		t.Errorf("rescued %d, clean card rescued %d", run.Rescued, want.Rescued)
	}
	for i := range reads {
		if !reflect.DeepEqual(run.Results[i], want.Results[i]) {
			t.Fatalf("read %d: farm %+v, clean card %+v", i, run.Results[i], want.Results[i])
		}
	}
	if farm.Stats().Redistributed == 0 {
		t.Errorf("stats = %+v, want redistribution", farm.Stats())
	}
}

func TestFarmContextCancelNotDeviceFailure(t *testing.T) {
	ix := buildIndex(t, 4000)
	reads := simReads(t, ix, 100, 30, 1)
	dev, _ := NewDevice(Config{})
	farm, err := NewFarm([]*Device{dev}, ix)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = farm.MapReadsOpts(reads, MapRunOptions{Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if IsDeviceFailure(err) {
		t.Error("cancellation misclassified as device failure (would trigger CPU fallback)")
	}
	// Cancellation must not count against the device's health.
	if dev.Breaker().ConsecutiveFailures() != 0 {
		t.Error("cancellation charged to the breaker")
	}
}
