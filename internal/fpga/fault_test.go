package fpga

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"bwaver/internal/core"
	"bwaver/internal/fmindex"
)

func TestParseFaultPlan(t *testing.T) {
	plan, err := ParseFaultPlan("seed=42,query=0.05,kernel=0.01,corrupt=0.02,persistent=0:kernel,persistent=1:result")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 42 {
		t.Errorf("seed = %d", plan.Seed)
	}
	if plan.Transient[StageQueryTransfer] != 0.05 || plan.Transient[StageKernel] != 0.01 ||
		plan.Transient[StageCorruption] != 0.02 {
		t.Errorf("transient probabilities = %v", plan.Transient)
	}
	if !plan.persistentAt(0, StageKernel) || !plan.persistentAt(1, StageResultTransfer) {
		t.Errorf("persistent faults = %v", plan.Persistent)
	}
	if plan.persistentAt(0, StageResultTransfer) || plan.persistentAt(2, StageKernel) {
		t.Errorf("spurious persistent faults = %v", plan.Persistent)
	}

	// String must round-trip through the parser.
	reparsed, err := ParseFaultPlan(plan.String())
	if err != nil {
		t.Fatalf("round trip %q: %v", plan.String(), err)
	}
	if !reflect.DeepEqual(plan, reparsed) {
		t.Errorf("round trip: %+v != %+v", plan, reparsed)
	}
}

func TestParseFaultPlanErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"nonsense",
		"bogus=0.1",
		"kernel=1.5",
		"kernel=-0.1",
		"kernel=abc",
		"seed=notanumber",
		"persistent=0",
		"persistent=x:kernel",
		"persistent=-1:kernel",
		"persistent=0:bogus",
	} {
		if _, err := ParseFaultPlan(spec); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted", spec)
		}
	}
}

func TestPersistentKernelFault(t *testing.T) {
	ix := buildIndex(t, 3000)
	reads := simReads(t, ix, 20, 30, 1)
	plan, err := ParseFaultPlan("seed=1,persistent=0:kernel")
	if err != nil {
		t.Fatal(err)
	}
	dev, _ := NewDevice(Config{})
	dev.EnableFaults(plan, 0)
	k, err := dev.Program(ix)
	if err != nil {
		t.Fatal(err)
	}
	_, err = k.MapReadsOpts(reads, MapRunOptions{})
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("MapReads error = %v, want FaultError", err)
	}
	if fe.Stage != StageKernel || !fe.Persistent || fe.Device != 0 {
		t.Errorf("fault = %+v", fe)
	}
	if !IsDeviceFailure(err) {
		t.Error("kernel fault not classified as device failure")
	}
	// The fault must keep firing: persistent means the card is dead.
	if _, err := k.MapReadsOpts(reads, MapRunOptions{}); !errors.As(err, &fe) {
		t.Fatalf("second run error = %v", err)
	}
	if len(dev.FaultLog()) != 2 || dev.FaultCounts()["kernel"] != 2 {
		t.Errorf("fault log %v counts %v", dev.FaultLog(), dev.FaultCounts())
	}
}

func TestCorruptionCaughtByChecksum(t *testing.T) {
	ix := buildIndex(t, 3000)
	reads := simReads(t, ix, 20, 30, 1)
	plan, err := ParseFaultPlan("seed=1,persistent=0:corrupt")
	if err != nil {
		t.Fatal(err)
	}
	dev, _ := NewDevice(Config{})
	dev.EnableFaults(plan, 0)
	k, err := dev.Program(ix)
	if err != nil {
		t.Fatal(err)
	}
	run, err := k.MapReadsOpts(reads, MapRunOptions{})
	if err != nil {
		t.Fatalf("corruption must not error at the device: %v", err)
	}
	if err := run.VerifyChecksum(); !errors.Is(err, ErrResultCorrupt) {
		t.Fatalf("VerifyChecksum = %v, want ErrResultCorrupt", err)
	}
	if !IsDeviceFailure(ErrResultCorrupt) {
		t.Error("corruption not classified as device failure")
	}

	// A clean device's batch passes verification.
	clean, _ := NewDevice(Config{})
	ck, _ := clean.Program(ix)
	goodRun, err := ck.MapReadsOpts(reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := goodRun.VerifyChecksum(); err != nil {
		t.Fatalf("clean run failed verification: %v", err)
	}
}

func TestFaultDeterminism(t *testing.T) {
	ix := buildIndex(t, 8000)
	reads := simReads(t, ix, 400, 35, 0.7)
	plan, err := ParseFaultPlan("seed=99,query=0.2,kernel=0.1,corrupt=0.15,persistent=1:result")
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		logs   [][]FaultEvent
		run    *Run[core.MapResult]
		runErr error
	}
	execute := func() outcome {
		devices := make([]*Device, 2)
		for i := range devices {
			devices[i], _ = NewDevice(Config{})
			devices[i].EnableFaults(plan, i)
		}
		farm, err := NewFarmOpts(devices, ix, FarmOptions{VerifyStride: 16})
		if err != nil {
			t.Fatal(err)
		}
		run, runErr := runFarm(farm, Exact(false), reads, MapRunOptions{})
		logs := make([][]FaultEvent, len(devices))
		for i, d := range devices {
			logs[i] = d.FaultLog()
		}
		return outcome{logs: logs, run: run, runErr: runErr}
	}

	a, b := execute(), execute()
	if (a.runErr == nil) != (b.runErr == nil) {
		t.Fatalf("runs diverged: %v vs %v", a.runErr, b.runErr)
	}
	if !reflect.DeepEqual(a.logs, b.logs) {
		t.Fatalf("fault logs diverged:\n%v\n%v", a.logs, b.logs)
	}
	if a.runErr != nil {
		t.Fatalf("seeded run failed on both attempts: %v", a.runErr)
	}
	// The plan must actually have injected something, or this test is vacuous.
	total := 0
	for _, log := range a.logs {
		total += len(log)
	}
	if total == 0 {
		t.Fatal("plan injected no faults")
	}
	if a.run.Checksum != b.run.Checksum {
		t.Fatalf("checksums diverged: %x vs %x", a.run.Checksum, b.run.Checksum)
	}
	// Recovery must be lossless: the final mappings match the CPU path.
	for i, read := range reads {
		want := ix.MapRead(read)
		if a.run.Results[i].Forward != want.Forward || a.run.Results[i].Reverse != want.Reverse {
			t.Fatalf("read %d: recovered result diverges from CPU", i)
		}
	}
}

// TestWrongHitsKeepingTheCountCaught corrupts a model result that finished
// on the text — rows [0, c−1], whose positions only its search held — so
// that it keeps its count but names other rows: moved to real
// rows elsewhere, or one bit of both ends flipped. The batch checksum and the
// sampled cross-check must each reject it, as they reject a flipped
// Forward.Start.
func TestWrongHitsKeepingTheCountCaught(t *testing.T) {
	ix := buildIndex(t, 20000)
	reads := simReads(t, ix, 200, 40, 1)
	dev, _ := NewDevice(Config{})
	k, err := dev.Program(ix)
	if err != nil {
		t.Fatal(err)
	}
	fm := ix.FM()
	for _, tc := range []struct {
		name      string
		corrupt   func(r *fmindex.Range)
		sameCount bool
	}{
		{"moved", func(r *fmindex.Range) { r.Start, r.End = r.Start+1000, r.End+1000 }, true},
		{"bit 4 of both ends", func(r *fmindex.Range) { r.Start, r.End = r.Start^16, r.End^16 }, true},
		{"one more", func(r *fmindex.Range) { r.End++ }, false},
	} {
		run, err := k.MapReadsOpts(reads, MapRunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		i := slices.IndexFunc(run.Results, func(r core.MapResult) bool { return fm.OnText(r.Forward) })
		if i < 0 {
			t.Fatal("no result finished on the text")
		}
		before := run.Results[i].Forward
		tc.corrupt(&run.Results[i].Forward)
		if same := run.Results[i].Forward.Count() == before.Count(); same != tc.sameCount {
			t.Fatalf("%s: %v became %v", tc.name, before, run.Results[i].Forward)
		}
		if err := run.VerifyChecksum(); !errors.Is(err, ErrResultCorrupt) {
			t.Errorf("%s: VerifyChecksum = %v, want ErrResultCorrupt", tc.name, err)
		}
		if err := core.VerifySampled(ix, reads, run.Results, 1); err == nil {
			t.Errorf("%s: the sampled cross-check passed %v for %v", tc.name, run.Results[i].Forward, before)
		}
	}
}
