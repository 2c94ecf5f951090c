package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"mime/multipart"
	"strings"
	"sync"
	"testing"

	"bwaver/internal/server"
)

// ringKeys renders a deterministic key population shaped like real ring keys
// (content hashes).
func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("cachekey|%016x", ringHash(fmt.Sprintf("ref-%d", i)))
	}
	return keys
}

// TestRingSkewBound: with defaultVnodes, no worker's share of a large key
// population may exceed twice the fair share, for every pool size the
// gateway is expected to run at.
func TestRingSkewBound(t *testing.T) {
	keys := ringKeys(20000)
	for workers := 1; workers <= 16; workers++ {
		r := newRing(0)
		for w := 0; w < workers; w++ {
			r.Add(fmt.Sprintf("http://worker-%d:8080", w))
		}
		counts := map[string]int{}
		for _, k := range keys {
			owners := r.Lookup(k, 1)
			if len(owners) != 1 {
				t.Fatalf("%d workers: Lookup(%q, 1) = %v", workers, k, owners)
			}
			counts[owners[0]]++
		}
		if len(counts) != workers {
			t.Fatalf("%d workers: only %d received keys", workers, len(counts))
		}
		fair := float64(len(keys)) / float64(workers)
		for node, c := range counts {
			if float64(c) > 2*fair {
				t.Errorf("%d workers: %s owns %d keys, more than 2x the fair share %.0f", workers, node, c, fair)
			}
			if float64(c) < fair/4 {
				t.Errorf("%d workers: %s owns %d keys, less than a quarter of the fair share %.0f", workers, node, c, fair)
			}
		}
	}
}

// TestRingMinimalMovement: adding a worker may only move keys onto the new
// worker (never reshuffle between the incumbents), the moved fraction must be
// near 1/(n+1), and removing the worker must restore the original mapping
// exactly.
func TestRingMinimalMovement(t *testing.T) {
	keys := ringKeys(10000)
	r := newRing(0)
	incumbents := 8
	for w := 0; w < incumbents; w++ {
		r.Add(fmt.Sprintf("http://worker-%d:8080", w))
	}
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = r.Lookup(k, 1)[0]
	}

	joiner := "http://worker-new:8080"
	if !r.Add(joiner) {
		t.Fatal("Add(joiner) reported already present")
	}
	moved := 0
	for _, k := range keys {
		owner := r.Lookup(k, 1)[0]
		if owner != before[k] {
			if owner != joiner {
				t.Fatalf("key %q moved %s -> %s, not to the joining worker", k, before[k], owner)
			}
			moved++
		}
	}
	fair := len(keys) / (incumbents + 1)
	if moved == 0 || moved > 2*fair {
		t.Errorf("join moved %d keys, want (0, %d]", moved, 2*fair)
	}

	if !r.Remove(joiner) {
		t.Fatal("Remove(joiner) reported not present")
	}
	for _, k := range keys {
		if owner := r.Lookup(k, 1)[0]; owner != before[k] {
			t.Fatalf("after leave, key %q owned by %s, want %s", k, owner, before[k])
		}
	}
}

// TestRingLookupReplicas: the replica chain is distinct, deterministic, and
// bounded by membership; n < 0 yields every worker.
func TestRingLookupReplicas(t *testing.T) {
	r := newRing(0)
	if got := r.Lookup("anything", 3); got != nil {
		t.Fatalf("empty ring Lookup = %v, want nil", got)
	}
	for w := 0; w < 5; w++ {
		r.Add(fmt.Sprintf("http://worker-%d:8080", w))
	}
	chain := r.Lookup("some-key", -1)
	if len(chain) != 5 {
		t.Fatalf("Lookup(-1) returned %d workers, want 5", len(chain))
	}
	seen := map[string]bool{}
	for _, n := range chain {
		if seen[n] {
			t.Fatalf("duplicate worker %s in replica chain %v", n, chain)
		}
		seen[n] = true
	}
	// A shorter lookup is a prefix of the full chain, and repeat lookups agree.
	short := r.Lookup("some-key", 2)
	if len(short) != 2 || short[0] != chain[0] || short[1] != chain[1] {
		t.Fatalf("Lookup(2) = %v, want prefix of %v", short, chain)
	}
	if again := r.Lookup("some-key", -1); fmt.Sprint(again) != fmt.Sprint(chain) {
		t.Fatalf("repeat lookup disagreed: %v vs %v", again, chain)
	}
	if over := r.Lookup("some-key", 50); len(over) != 5 {
		t.Fatalf("Lookup(50) returned %d workers, want all 5", len(over))
	}
	if none := r.Lookup("some-key", 0); none != nil {
		t.Fatalf("Lookup(0) = %v, want nil", none)
	}
}

// TestRingConcurrentAccess exercises membership churn against lookups under
// -race.
func TestRingConcurrentAccess(t *testing.T) {
	r := newRing(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			node := fmt.Sprintf("http://worker-%d:8080", g)
			for i := 0; i < 200; i++ {
				r.Add(node)
				r.Lookup(fmt.Sprintf("key-%d-%d", g, i), -1)
				r.Remove(node)
			}
		}(g)
	}
	wg.Wait()
	if left := r.Lookup("any-key", -1); len(left) != 0 {
		t.Fatalf("ring not empty after churn: %v", left)
	}
}

// The gateway's ring key is the worker's alias key: SHA-256 of the reference
// part's bytes plus b/sf/ftabK, whatever else the body holds and in whatever
// order — and it never parses the reference, so a byte-different encoding of
// one sequence (or plain garbage) hashes like any other bytes.
func TestRingKeyFromMultipartIsTheAliasKey(t *testing.T) {
	ref, reads := testUpload(t, 4000, 61)
	otherRef, otherReads := testUpload(t, 4000, 63)
	form := func(parts ...[2]string) (string, []byte) {
		var buf bytes.Buffer
		mw := multipart.NewWriter(&buf)
		for _, p := range parts {
			var w io.Writer
			if p[0] == "reference" || p[0] == "reads" {
				w, _ = mw.CreateFormFile(p[0], p[0]+".txt")
			} else {
				w, _ = mw.CreateFormField(p[0])
			}
			io.WriteString(w, p[1])
		}
		mw.Close()
		return mw.FormDataContentType(), buf.Bytes()
	}
	keyWithQuery := func(query string, parts ...[2]string) string {
		t.Helper()
		ctype, body := form(parts...)
		k, err := ringKeyFromMultipart(ctype, query, body, 10)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	key := func(parts ...[2]string) string {
		t.Helper()
		return keyWithQuery("", parts...)
	}
	sum := sha256.Sum256(ref)
	// A submission that names no b or sf is keyed at the server's defaults,
	// b = 15 and sf = 50.
	want := server.RingKey(hex.EncodeToString(sum[:]), 15, 50, 10)
	base := key([2]string{"reference", string(ref)}, [2]string{"reads", string(reads)})
	if base != want {
		t.Fatalf("ring key %q, want the alias key %q", base, want)
	}
	if k := key([2]string{"backend", "cpu"}, [2]string{"reads", string(otherReads)}, [2]string{"reference", string(ref)},
		[2]string{"reference", string(otherRef)}); k != base {
		t.Error("ring key depends on the reads, the part order or a later duplicate reference")
	}
	if k := key([2]string{"reference", string(ref)}, [2]string{"reads", string(reads)}, [2]string{"b", "12"}); k !=
		server.RingKey(hex.EncodeToString(sum[:]), 12, 50, 10) {
		t.Errorf("ring key %q ignores a b field after the files", k)
	}
	// The worker's precedence: the first value of a field wins, and a URL
	// query value outranks the body.
	if k := key([2]string{"b", "12"}, [2]string{"reference", string(ref)}, [2]string{"b", "13"}); k !=
		server.RingKey(hex.EncodeToString(sum[:]), 12, 50, 10) {
		t.Errorf("ring key %q does not take the first b field", k)
	}
	if k := keyWithQuery("b=11&sf=40", [2]string{"b", "13"}, [2]string{"reference", string(ref)}); k !=
		server.RingKey(hex.EncodeToString(sum[:]), 11, 40, 10) {
		t.Errorf("ring key %q does not let the query outrank the body", k)
	}
	if key([2]string{"reference", string(otherRef)}, [2]string{"reads", string(reads)}) == base {
		t.Error("ring key ignores the reference bytes")
	}
	lower := strings.ToLower(string(ref[bytes.IndexByte(ref, '\n'):]))
	if key([2]string{"reference", string(ref[:bytes.IndexByte(ref, '\n')]) + lower}, [2]string{"reads", string(reads)}) == base {
		t.Error("a lower-case encoding hashed like the original: the gateway must not normalise")
	}
	if k := key([2]string{"reference", "not fasta at all\x00"}, [2]string{"reads", string(reads)}); !strings.Contains(k, "|15|50|10") {
		t.Errorf("unparseable reference: key %q, want a digest key (the worker reports the parse error)", k)
	}
	ctype, body := form([2]string{"reads", string(reads)})
	if _, err := ringKeyFromMultipart(ctype, "", body, 10); err == nil {
		t.Error("a body without a reference part produced a ring key")
	}
}
