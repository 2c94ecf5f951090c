package fpga

import (
	"context"
	"errors"
	"testing"
)

// A resident index skips the transfer charge but changes nothing functional —
// the amortization a service relies on when reusing a programmed kernel.
func TestMapReadsOptsIndexResident(t *testing.T) {
	ix := buildIndex(t, 20000)
	reads := simReads(t, ix, 200, 40, 0.5)
	d, _ := NewDevice(Config{})
	k, err := d.Program(ix)
	if err != nil {
		t.Fatal(err)
	}
	first, err := k.MapReadsOpts(reads, MapRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Profile.IndexTransfer <= 0 {
		t.Fatalf("first run charged no index transfer: %v", first.Profile.IndexTransfer)
	}
	second, err := k.MapReadsOpts(reads, MapRunOptions{IndexResident: true})
	if err != nil {
		t.Fatal(err)
	}
	if second.Profile.IndexTransfer != 0 {
		t.Errorf("resident run charged index transfer %v", second.Profile.IndexTransfer)
	}
	if second.Profile.Total() >= first.Profile.Total() {
		t.Errorf("resident total %v not below first total %v", second.Profile.Total(), first.Profile.Total())
	}
	for i := range first.Results {
		if first.Results[i].Forward != second.Results[i].Forward || first.Results[i].Reverse != second.Results[i].Reverse {
			t.Fatalf("read %d: resident run changed results", i)
		}
	}
}

func TestMapReadsOptsCancel(t *testing.T) {
	ix := buildIndex(t, 20000)
	reads := simReads(t, ix, 100, 40, 0.5)
	d, _ := NewDevice(Config{})
	k, err := d.Program(ix)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := k.MapReadsOpts(reads, MapRunOptions{Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled run returned %v, want context.Canceled", err)
	}
	if _, err := runKernel(k, twoPassWork{1}, reads, MapRunOptions{Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled two-pass run returned %v, want context.Canceled", err)
	}
}

func TestMapReadsOptsProgress(t *testing.T) {
	ix := buildIndex(t, 20000)
	reads := simReads(t, ix, 150, 40, 0.5)
	d, _ := NewDevice(Config{})
	k, err := d.Program(ix)
	if err != nil {
		t.Fatal(err)
	}
	var calls []int
	_, err = k.MapReadsOpts(reads, MapRunOptions{
		ProgressEvery: 50,
		Progress:      func(done, total int) { calls = append(calls, done) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) == 0 || calls[len(calls)-1] != len(reads) {
		t.Fatalf("progress calls %v must end at %d", calls, len(reads))
	}
	for i := 1; i < len(calls); i++ {
		if calls[i] < calls[i-1] {
			t.Fatalf("progress not monotonic: %v", calls)
		}
	}
}
