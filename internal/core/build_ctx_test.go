package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"bwaver/internal/obs"
)

// TestBuildIndexCtxCanceled: a canceled context aborts construction with the
// context's error, the contract the server's job-cancellation path relies
// on — at the next phase boundary, and inside the suffix-array phase, most of
// a build, at the next pass of the sort.
func TestBuildIndexCtxCanceled(t *testing.T) {
	ref := testGenome(t, 4000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildIndexCtx(ctx, ref, IndexConfig{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Cancelled from another goroutine a tenth of the way into the suffix
	// sort, the build returns before that phase would have ended.
	ref = testGenome(t, 2<<20)
	full, err := BuildIndexCtx(context.Background(), ref, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	saTime := full.Stats().SATime
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	timer := time.AfterFunc(saTime/10, cancel)
	defer timer.Stop()
	start := time.Now()
	_, err = BuildIndexCtx(ctx, ref, IndexConfig{})
	took := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-sort cancel: err = %v, want context.Canceled", err)
	}
	if took >= saTime {
		t.Errorf("cancelled %v into a %v suffix sort, the build returned after %v", saTime/10, saTime, took)
	}
}

// TestBuildIndexCtxSpans: a trace on the context collects one span per
// build phase, each closed with a non-negative duration.
func TestBuildIndexCtxSpans(t *testing.T) {
	ref := testGenome(t, 4000)
	tr := obs.NewTrace("build")
	ctx := obs.WithTrace(context.Background(), tr)
	if _, err := BuildIndexCtx(ctx, ref, IndexConfig{}); err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	got := map[string]bool{}
	for _, s := range snap.Spans {
		if s.DurationMs < 0 {
			t.Errorf("span %s still open", s.Name)
		}
		got[s.Name] = true
	}
	for _, want := range []string{"build.sa", "build.bwt", "build.encode"} {
		if !got[want] {
			t.Errorf("missing span %s (have %v)", want, got)
		}
	}
}

// TestBuildIndexCtxNoTrace: building without a trace still works (nil-span
// no-op path) and matches BuildIndex output bit-for-bit on the stats that
// matter.
func TestBuildIndexCtxNoTrace(t *testing.T) {
	ref := testGenome(t, 2000)
	a, err := BuildIndex(ref, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildIndexCtx(context.Background(), ref, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if a.StructureBytes() != b.StructureBytes() || a.RefLength() != b.RefLength() {
		t.Fatalf("ctx build differs: %d/%d vs %d/%d",
			a.StructureBytes(), a.RefLength(), b.StructureBytes(), b.RefLength())
	}
}
