package core

import (
	"context"
	"errors"
	"testing"

	"bwaver/internal/dna"
	"bwaver/internal/readsim"
	"bwaver/internal/rrr"
)

func TestCacheKeyIdentity(t *testing.T) {
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := IndexConfig{RRR: rrr.Params{BlockSize: 15, SuperblockFactor: 50}}

	k1 := CacheKey(ref, nil, cfg)
	k2 := CacheKey(ref, nil, cfg)
	if k1 != k2 {
		t.Fatalf("same inputs produced different keys: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Fatalf("key %q is not a hex sha256", k1)
	}

	// The zero config resolves to the paper defaults, so it must share a
	// key with the explicit default parameters.
	if got := CacheKey(ref, nil, IndexConfig{}); got != k1 {
		t.Errorf("zero config key differs from explicit defaults")
	}

	// Any change to the addressed content must change the key.
	other := append(dna.Seq(nil), ref...)
	other[0] ^= 1
	if CacheKey(other, nil, cfg) == k1 {
		t.Error("mutated reference shares a key")
	}
	if CacheKey(ref[:len(ref)-1], nil, cfg) == k1 {
		t.Error("truncated reference shares a key")
	}
	if CacheKey(ref, nil, IndexConfig{RRR: rrr.Params{BlockSize: 7, SuperblockFactor: 50}}) == k1 {
		t.Error("different block size shares a key")
	}
	if CacheKey(ref, nil, IndexConfig{RRR: cfg.RRR, Locate: LocateNone}) == k1 {
		t.Error("count-only config shares a key")
	}
	cs, err := NewContigSet([]string{"a", "b"}, []int{1000, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if CacheKey(ref, cs, cfg) == k1 {
		t.Error("contig layout not part of the key")
	}
}

func TestMapReadsContextCanceled(t *testing.T) {
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 3000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(ref, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reads := []dna.Seq{ref[100:140], ref[200:240], ref[300:340]}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, workers := range []int{1, 4} {
		if _, _, err := ix.MapReads(reads, MapOptions{Context: ctx, Workers: workers}); !errors.Is(err, context.Canceled) {
			t.Errorf("MapReads workers=%d returned %v, want context.Canceled", workers, err)
		}
		if _, err := ix.mapReadsApprox(reads, 1, MapOptions{Context: ctx, Workers: workers}); !errors.Is(err, context.Canceled) {
			t.Errorf("MapReadsApprox workers=%d returned %v, want context.Canceled", workers, err)
		}
	}

	// A nil context preserves the historical behaviour.
	if _, _, err := ix.MapReads(reads, MapOptions{}); err != nil {
		t.Errorf("nil-context MapReads failed: %v", err)
	}
}
