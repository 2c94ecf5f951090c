package fpga

import (
	"strings"
	"testing"

	"bwaver/internal/obs"
)

// TestFarmEventTaggingUnderFaults pins down the event-identity contract:
// after a persistent fault drives shard redistribution, the aggregate event
// log records which device and attempt actually produced each shard's
// timeline, and the log is ordered by (Shard, Start, Name).
func TestFarmEventTaggingUnderFaults(t *testing.T) {
	ix := buildIndex(t, 8000)
	reads := simReads(t, ix, 200, 35, 0.7)
	plan, err := ParseFaultPlan("seed=7,persistent=0:kernel")
	if err != nil {
		t.Fatal(err)
	}
	devices := make([]*Device, 2)
	for i := range devices {
		devices[i], _ = NewDevice(Config{})
		devices[i].EnableFaults(plan, i)
	}
	reg := obs.NewRegistry()
	farm, err := NewFarmOpts(devices, ix, FarmOptions{
		MaxAttempts: 2,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := runFarm(farm, Exact(false), reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	events := run.Profile.Events
	if len(events) == 0 {
		t.Fatal("aggregate run has no events")
	}
	shards := map[int]bool{}
	for _, e := range events {
		shards[e.Shard] = true
		if e.Attempt < 1 {
			t.Errorf("event %q shard %d: attempt %d, want >= 1", e.Name, e.Shard, e.Attempt)
		}
		// Device 0's kernel stage always faults, so every surviving shard
		// timeline was produced by device 1.
		if e.Device != 1 {
			t.Errorf("event %q shard %d attributed to device %d, want 1", e.Name, e.Shard, e.Device)
		}
	}
	if !shards[0] || !shards[1] {
		t.Errorf("events cover shards %v, want both 0 and 1", shards)
	}
	for i := 1; i < len(events); i++ {
		a, b := events[i-1], events[i]
		ordered := a.Shard < b.Shard ||
			(a.Shard == b.Shard && (a.Start < b.Start ||
				(a.Start == b.Start && a.Name <= b.Name)))
		if !ordered {
			t.Fatalf("events[%d]=%+v out of order after events[%d]=%+v", i, b, i-1, a)
		}
	}

	// The same run should have charged retry backoff and stage durations to
	// the attached registry.
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()
	for _, want := range []string{
		`bwaver_fpga_stage_seconds_bucket{stage="kernel",le="+Inf"}`,
		`bwaver_fpga_stage_seconds_bucket{stage="retry_backoff",le="+Inf"}`,
		"bwaver_fpga_retry_backoff_seconds_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q:\n%s", want, text)
		}
	}
}

// TestKernelEventTagging: a single-kernel run tags every event with the
// device's identity, attempt 1, shard 0.
func TestKernelEventTagging(t *testing.T) {
	ix := buildIndex(t, 4000)
	reads := simReads(t, ix, 40, 30, 1)
	dev, err := NewDevice(Config{})
	if err != nil {
		t.Fatal(err)
	}
	dev.EnableFaults(nil, 3) // assigns the ID only
	k, err := dev.Program(ix)
	if err != nil {
		t.Fatal(err)
	}
	run, err := k.MapReadsOpts(reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Profile.Events) == 0 {
		t.Fatal("no events")
	}
	for _, e := range run.Profile.Events {
		if e.Device != 3 || e.Attempt != 1 || e.Shard != 0 {
			t.Errorf("event %q tagged (device=%d attempt=%d shard=%d), want (3,1,0)",
				e.Name, e.Device, e.Attempt, e.Shard)
		}
	}
}
