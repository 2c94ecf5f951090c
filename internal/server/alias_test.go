package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bwaver/internal/readsim"
)

// countParses installs the reference-parse hook and returns its counter.
func countParses(s *Server) *atomic.Int32 {
	var n atomic.Int32
	s.testHookParseReference = func(*Job) { n.Add(1) }
	return &n
}

// renderFasta writes records as FASTA with the given line width and line
// ending, optionally in lower case: different bytes, one sequence.
func renderFasta(names []string, seqs []string, width int, eol string, lower bool) []byte {
	var b bytes.Buffer
	for i, seq := range seqs {
		if lower {
			seq = strings.ToLower(seq)
		}
		b.WriteString(">" + names[i] + eol)
		for off := 0; off < len(seq); off += width {
			b.WriteString(seq[off:min(off+width, len(seq))] + eol)
		}
	}
	return b.Bytes()
}

// aliasTestData is a two-record reference (so positions are contig-relative)
// in the encoding renderFasta's arguments pick, plus reads from it.
func aliasTestData(t *testing.T, seed int64, width int, eol string, lower bool) (refFasta, readsFastq []byte) {
	t.Helper()
	ref, err := readsim.Genome(readsim.GenomeConfig{Length: 8000, Seed: seed, RepeatFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := readsim.Simulate(ref, readsim.ReadsConfig{
		Count: 80, Length: 40, MappingRatio: 0.7, RevCompFraction: 0.5, Seed: seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	text := ref.String()
	refFasta = renderFasta([]string{"ctgA", "ctgB"}, []string{text[:3000], text[3000:]}, width, eol, lower)
	var qb bytes.Buffer
	for _, r := range sim {
		fmt.Fprintf(&qb, "@%s\n%s\n+\n%s\n", r.ID, r.Seq, strings.Repeat("I", len(r.Seq)))
	}
	return refFasta, qb.Bytes()
}

// runUpload submits one multipart job and waits for it.
func runUpload(t *testing.T, s *Server, ts *httptest.Server, fields map[string]string, refFasta, readsFastq []byte) jobJSON {
	t.Helper()
	loc := submitJob(t, s, ts, fields, map[string][]byte{"reference": refFasta, "reads": readsFastq})
	var id int
	if _, err := fmt.Sscanf(loc, "/jobs/%d", &id); err != nil {
		t.Fatalf("location %q", loc)
	}
	return waitForState(t, ts, id, stateDone)
}

// The tentpole: the second job for one upload finds its index by the digest
// of the bytes and never parses the reference, yet reports the same reference
// name and length and the same contig-relative rows.
func TestWarmJobSkipsReferenceParse(t *testing.T) {
	refFasta, readsFastq := aliasTestData(t, 31, 60, "\n", false)
	s := openServer(t, Config{})
	defer s.Close()
	parses := countParses(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cpu := map[string]string{"backend": "cpu"}
	j1 := runUpload(t, s, ts, cpu, refFasta, readsFastq)
	j2 := runUpload(t, s, ts, cpu, refFasta, readsFastq)
	if n := parses.Load(); n != 1 {
		t.Fatalf("reference parsed %d times over two jobs, want once", n)
	}
	if j1.CacheHit || !j2.CacheHit {
		t.Errorf("cache_hit %v then %v, want false then true", j1.CacheHit, j2.CacheHit)
	}
	if j1.RefName != "ctgA" || j1.RefLength != 8000 {
		t.Errorf("cold job reference %q/%d, want ctgA/8000", j1.RefName, j1.RefLength)
	}
	if j2.RefName != j1.RefName || j2.RefLength != j1.RefLength || j2.Reads != j1.Reads || j2.Mapped != j1.Mapped {
		t.Errorf("warm job %+v differs from cold job %+v", j2, j1)
	}
	rows := fetchResults(t, ts, j1.ID)
	if !bytes.Contains(rows, []byte("ctgB:")) {
		t.Fatalf("rows are not contig-relative:\n%.300s", rows)
	}
	if !bytes.Equal(fetchResults(t, ts, j2.ID), rows) {
		t.Error("warm job rows differ from the cold job's")
	}
	if st := getStats(t, ts).Cache; st.Misses != 1 || st.Hits != 1 {
		t.Errorf("cache %d misses / %d hits, want 1 / 1", st.Misses, st.Hits)
	}
}

// The alias is keyed by bytes, the index by content: encodings of one
// sequence get an alias each and share one index; the same bytes under other
// build parameters get another index.
func TestAliasPerEncodingIndexPerContent(t *testing.T) {
	_, readsFastq := aliasTestData(t, 33, 60, "\n", false)
	encodings := [][]byte{}
	for _, enc := range []struct {
		width int
		eol   string
		lower bool
	}{{60, "\n", false}, {80, "\r\n", false}, {60, "\n", true}} {
		refFasta, _ := aliasTestData(t, 33, enc.width, enc.eol, enc.lower)
		encodings = append(encodings, refFasta)
	}
	s := openServer(t, Config{})
	defer s.Close()
	parses := countParses(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var rows []byte
	for i, refFasta := range encodings {
		j := runUpload(t, s, ts, map[string]string{"backend": "cpu"}, refFasta, readsFastq)
		if j.CacheHit != (i > 0) {
			t.Errorf("encoding %d: cache_hit %v", i, j.CacheHit)
		}
		got := fetchResults(t, ts, j.ID)
		if i == 0 {
			rows = got
		} else if !bytes.Equal(got, rows) {
			t.Errorf("encoding %d: rows differ", i)
		}
	}
	keys := func() (aliases int, distinct map[string]bool) {
		s.cache.mu.Lock()
		defer s.cache.mu.Unlock()
		distinct = map[string]bool{}
		for _, key := range s.cache.aliases {
			distinct[key] = true
		}
		return len(s.cache.aliases), distinct
	}
	if n, distinct := keys(); n != 3 || len(distinct) != 1 {
		t.Fatalf("%d aliases onto %d cache keys, want 3 onto 1", n, len(distinct))
	}
	if st := getStats(t, ts).Cache; st.Misses != 1 || st.Hits != 2 || st.Entries != 1 {
		t.Errorf("cache %+v, want one build shared by three jobs", st)
	}
	if n := parses.Load(); n != 3 {
		t.Errorf("%d parses, want one per unseen encoding", n)
	}

	// Same bytes, different RRR parameters: new alias, new key, new build.
	for _, p := range []map[string]string{{"b": "12"}, {"sf": "40"}} {
		p["backend"] = "cpu"
		if j := runUpload(t, s, ts, p, encodings[0], readsFastq); j.CacheHit {
			t.Errorf("%v reused an index built under other parameters", p)
		}
	}
	if n, distinct := keys(); n != 5 || len(distinct) != 3 {
		t.Errorf("%d aliases onto %d cache keys, want 5 onto 3", n, len(distinct))
	}
}

// An alias outlives its cache entry: with the entry evicted the spilled index
// is loaded without a parse; with the spill gone too the reference is parsed
// after all, inside the build, and the index rebuilt.
func TestAliasHitFallsBackToSpillThenParse(t *testing.T) {
	refA, readsA := aliasTestData(t, 35, 60, "\n", false)
	refB, readsB := aliasTestData(t, 37, 60, "\n", false)
	stateDir := t.TempDir()
	s, err := Open(Config{StateDir: stateDir, CacheEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	parses := countParses(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cpu := map[string]string{"backend": "cpu"}

	first := runUpload(t, s, ts, cpu, refA, readsA)
	rows := fetchResults(t, ts, first.ID)
	runUpload(t, s, ts, cpu, refB, readsB) // evicts A from the one-entry LRU

	fromSpill := runUpload(t, s, ts, cpu, refA, readsA)
	if n := parses.Load(); n != 2 {
		t.Fatalf("%d parses after the spill load, want 2 (A and B, once each)", n)
	}
	if st := getStats(t, ts).Cache; st.DiskHits != 1 {
		t.Errorf("disk_hits %d, want 1", st.DiskHits)
	}
	if !fromSpill.CacheHit || fromSpill.RefName != "ctgA" || fromSpill.RefLength != 8000 {
		t.Errorf("spill-served job %+v", fromSpill)
	}
	if !bytes.Equal(fetchResults(t, ts, fromSpill.ID), rows) {
		t.Error("spill-served rows differ")
	}

	runUpload(t, s, ts, cpu, refB, readsB) // evicts A again
	spills, err := filepath.Glob(filepath.Join(stateDir, indexSpillDir, "*.bwx"))
	if err != nil || len(spills) != 2 {
		t.Fatalf("spill files %v, %v; want two", spills, err)
	}
	for _, p := range spills {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	rebuilt := runUpload(t, s, ts, cpu, refA, readsA)
	if n := parses.Load(); n != 3 {
		t.Fatalf("%d parses after the spill was deleted, want 3", n)
	}
	if rebuilt.CacheHit || rebuilt.RefName != "ctgA" || rebuilt.RefLength != 8000 {
		t.Errorf("rebuilt job %+v", rebuilt)
	}
	if !bytes.Equal(fetchResults(t, ts, rebuilt.ID), rows) {
		t.Error("rebuilt rows differ")
	}
}

// A reference that fails to parse fails its job and leaves no alias behind;
// a good upload afterwards is unaffected.
func TestCorruptReferenceRecordsNoAlias(t *testing.T) {
	refFasta, readsFastq := aliasTestData(t, 39, 60, "\n", false)
	s := openServer(t, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	corrupt := append([]byte(nil), refFasta...)
	corrupt[0] = '#' // no FASTA header
	submitJob(t, s, ts, nil, map[string][]byte{"reference": corrupt, "reads": readsFastq})
	s.Wait()
	if j := getJobJSON(t, ts, 1); j.State != string(stateFailed) || !strings.Contains(j.Error, "reference") {
		t.Fatalf("corrupt upload: state %s, error %q", j.State, j.Error)
	}
	s.cache.mu.Lock()
	aliases := len(s.cache.aliases)
	s.cache.mu.Unlock()
	if aliases != 0 {
		t.Fatalf("%d aliases after a failed parse, want none", aliases)
	}
	// The same corrupt bytes again fail the same way: nothing was cached.
	submitJob(t, s, ts, nil, map[string][]byte{"reference": corrupt, "reads": readsFastq})
	s.Wait()
	if j := getJobJSON(t, ts, 2); j.State != string(stateFailed) {
		t.Fatalf("corrupt retry: state %s", j.State)
	}
	if j := runUpload(t, s, ts, nil, refFasta, readsFastq); j.Mapped == 0 {
		t.Errorf("good retry mapped nothing: %+v", j)
	}
}

// The routes that bring no digest — chunked finalize (payload bytes or file)
// and journal replay — hash the payload at launch and meet the multipart
// route's alias.
func TestChunkedAndReplayedJobsTakeTheAliasPath(t *testing.T) {
	refFasta, readsFastq := aliasTestData(t, 41, 60, "\n", false)
	digest, err := bytesSpool(refFasta).digest()
	if err != nil {
		t.Fatal(err)
	}
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			cfg := Config{}
			if durable {
				cfg.StateDir = t.TempDir()
			}
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			parses := countParses(s)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			first := runUpload(t, s, ts, map[string]string{"backend": "cpu"}, refFasta, readsFastq)
			id := chunkedSubmit(t, ts, refFasta, readsFastq, 1000)
			chunked := waitForState(t, ts, id, stateDone)
			if n := parses.Load(); n != 1 {
				t.Errorf("%d parses, want 1: the chunked job's payload digest should have met the alias", n)
			}
			if !chunked.CacheHit || chunked.RefName != first.RefName || chunked.RefLength != first.RefLength {
				t.Errorf("chunked job %+v", chunked)
			}
			if !bytes.Equal(fetchResults(t, ts, id), fetchResults(t, ts, first.ID)) {
				t.Error("chunked job rows differ")
			}
		})
	}

	t.Run("replay", func(t *testing.T) {
		stateDir := t.TempDir()
		s, err := Open(Config{StateDir: stateDir})
		if err != nil {
			t.Fatal(err)
		}
		release := make(chan struct{})
		entered := make(chan struct{})
		s.testHookBeforeRun = func(_ *Job, ctx context.Context) {
			close(entered)
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
		ts := httptest.NewServer(s.Handler())
		submitJob(t, s, ts, map[string]string{"backend": "cpu"},
			map[string][]byte{"reference": refFasta, "reads": readsFastq})
		<-entered // accepted and journaled, not finished
		crashed := snapshotDir(t, stateDir)
		close(release)
		s.Wait()
		rows := fetchResults(t, ts, 1)
		ts.Close()
		s.Close()

		s2, err := Open(Config{StateDir: crashed})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		ts2 := httptest.NewServer(s2.Handler())
		defer ts2.Close()
		waitForState(t, ts2, 1, stateDone)
		if !bytes.Equal(fetchResults(t, ts2, 1), rows) {
			t.Error("replayed rows differ")
		}
		// The replayed job hashed its payload file: the alias it left is the
		// one the same bytes produce on the wire.
		if s2.cache.aliasKey(RingKey(digest, defaultB, defaultSF, s2.cfg.FtabK)) == "" {
			t.Fatal("the replayed job recorded no alias under its payload's digest")
		}
		parses := countParses(s2) // the replayed job is done: no one is reading the hook
		if j := runUpload(t, s2, ts2, map[string]string{"backend": "cpu"}, refFasta, readsFastq); !j.CacheHit {
			t.Errorf("upload after the replay: %+v", j)
		}
		if parses.Load() != 0 {
			t.Error("the upload after the replay parsed the reference again")
		}
	})
}

// Eight submissions of one unseen reference at once: one build, one alias,
// eight identical results. Run under -race.
func TestConcurrentSubmissionsOfOneNewReference(t *testing.T) {
	refFasta, readsFastq := aliasTestData(t, 43, 60, "\n", false)
	s := openServer(t, Config{MaxConcurrentJobs: 8})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	body, ctype := buildUpload(t, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/jobs", bytes.NewReader(body.Bytes()))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("Content-Type", ctype)
			req.Header.Set("Accept", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("submit returned %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	s.Wait()
	rows := fetchResults(t, ts, 1)
	for id := 1; id <= n; id++ {
		if j := getJobJSON(t, ts, id); j.State != string(stateDone) || j.RefName != "ctgA" || j.RefLength != 8000 {
			t.Fatalf("job %d: %+v", id, j)
		}
		if !bytes.Equal(fetchResults(t, ts, id), rows) {
			t.Errorf("job %d rows differ from job 1's", id)
		}
	}
	if st := getStats(t, ts).Cache; st.Misses != 1 || st.Hits != n-1 {
		t.Errorf("cache %d misses / %d hits, want 1 / %d", st.Misses, st.Hits, n-1)
	}
	s.cache.mu.Lock()
	aliases := len(s.cache.aliases)
	s.cache.mu.Unlock()
	if aliases != 1 {
		t.Errorf("%d aliases, want 1", aliases)
	}
}

// The alias map is bounded: filling it empties it, which costs each forgotten
// upload one more parse and nothing else; updating a known alias never does.
func TestAliasMapIsBounded(t *testing.T) {
	c := newIndexCache(1)
	for i := range maxAliases {
		c.setAlias(fmt.Sprintf("alias-%d", i), fmt.Sprintf("key-%d", i))
	}
	c.setAlias("alias-20", "key-20b")
	if len(c.aliases) != maxAliases || c.aliasKey("alias-0") != "key-0" || c.aliasKey("alias-20") != "key-20b" {
		t.Fatalf("%d aliases after filling the map and updating one, want %d", len(c.aliases), maxAliases)
	}
	c.setAlias("one-more", "key")
	if len(c.aliases) != 1 || c.aliasKey("one-more") != "key" || c.aliasKey("alias-0") != "" {
		t.Errorf("%d aliases after overflowing the map, want only the newest", len(c.aliases))
	}
}
