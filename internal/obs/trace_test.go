package obs

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	tr := NewTrace("7")
	ctx := WithTrace(context.Background(), tr)

	ctx1, job := StartSpan(ctx, "job")
	_, build := StartSpan(ctx1, "build")
	build.SetAttr("cache_hit", false)
	build.End()
	_, mp := StartSpan(ctx1, "map")
	mp.AddModeled("kernel:bwaver", 0, 5*time.Millisecond, map[string]any{"device": 1, "attempt": 2})
	mp.End()
	job.End()

	snap := tr.Snapshot()
	if snap.ID != "7" || len(snap.Spans) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	root := snap.Spans[0]
	if root.Name != "job" || len(root.Children) != 2 {
		t.Fatalf("root = %+v", root)
	}
	if root.Children[0].Name != "build" || root.Children[0].Attrs["cache_hit"] != false {
		t.Errorf("build span = %+v", root.Children[0])
	}
	kernel := root.Children[1].Children[0]
	if !kernel.Modeled || kernel.DurationMs != 5 || kernel.Attrs["device"] != 1 {
		t.Errorf("modeled span = %+v", kernel)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("marshal: %v", err)
	}
}

// TestNoTraceIsNoop: instrumented code paths must work with no trace on the
// context — nil spans absorb every call.
func TestNoTraceIsNoop(t *testing.T) {
	ctx, s := StartSpan(context.Background(), "x")
	if s != nil {
		t.Fatal("span without a trace should be nil")
	}
	s.SetAttr("k", "v")
	s.AddModeled("m", 0, 0, nil)
	s.End()
	if SpanFrom(ctx) != nil {
		t.Fatal("no span should be attached")
	}
	var tr *Trace
	if tr.startSpan("y") != nil {
		t.Fatal("nil trace should return nil span")
	}
}

// TestOpenSpanSnapshot: snapshotting a live trace marks open spans with
// duration -1 — what the live /api/jobs/{id}/trace endpoint serves.
func TestOpenSpanSnapshot(t *testing.T) {
	tr := NewTrace("1")
	s := tr.startSpan("running")
	snap := tr.Snapshot()
	if snap.Spans[0].DurationMs != -1 {
		t.Errorf("open span duration = %v, want -1", snap.Spans[0].DurationMs)
	}
	s.End()
	if d := tr.Snapshot().Spans[0].DurationMs; d < 0 {
		t.Errorf("closed span duration = %v, want >= 0", d)
	}
}

// TestConcurrentSnapshot: snapshots race-cleanly with span churn.
func TestConcurrentSnapshot(t *testing.T) {
	tr := NewTrace("race")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := tr.startSpan("s")
			c := s.startChild("c")
			c.SetAttr("i", 1)
			c.End()
			s.End()
		}
	}()
	for i := 0; i < 50; i++ {
		tr.Snapshot()
	}
	close(stop)
	wg.Wait()
}

func TestLoggerConstruction(t *testing.T) {
	if NewLogger(nil, "json", "debug") == nil || NewLogger(nil, "bogus", "bogus") == nil {
		t.Fatal("NewLogger must always construct")
	}
	NopLogger().Info("discarded")
	if parseLevel("warn") != parseLevel("WARNING") {
		t.Error("level aliases disagree")
	}
}
