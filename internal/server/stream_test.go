package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// exactRow is the NDJSON wire form of one exact-matching result, as the
// tests decode the stream.
type exactRow struct {
	Read        string `json:"read"`
	Mapped      bool   `json:"mapped"`
	FwCount     int    `json:"fw_count"`
	FwPositions string `json:"fw_positions"`
	RcCount     int    `json:"rc_count"`
	RcPositions string `json:"rc_positions"`
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	id    int
	event string
	data  string
}

// getSSE reads a job's stream to completion and parses the events. from > 0
// resumes with a Last-Event-ID header, the way a reconnecting EventSource
// does.
func getSSE(t *testing.T, ts *httptest.Server, id, from int) []sseEvent {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/api/jobs/%d/stream", ts.URL, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	if from > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(from))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			cur.id, _ = strconv.Atoi(line[4:])
		case strings.HasPrefix(line, "event: "):
			cur.event = line[7:]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[6:]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if cur.event != "" {
		events = append(events, cur)
	}
	return events
}

// The SSE stream replays a finished job in full: one result event per read
// with 1-based contiguous ids, sealed by a done event whose summary matches
// the job, and Last-Event-ID resumes exactly after the acknowledged row.
func TestStreamSSEReplayAndResume(t *testing.T) {
	refFasta, readsFastq, sim := testData(t)
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	waitForState(t, ts, 1, StateDone)

	events := getSSE(t, ts, 1, 0)
	if len(events) != len(sim)+1 {
		t.Fatalf("%d events, want %d results + terminal", len(events), len(sim))
	}
	for i, ev := range events[:len(sim)] {
		if ev.event != "result" || ev.id != i+1 {
			t.Fatalf("event %d = {id %d, %q}, want result id %d", i, ev.id, ev.event, i+1)
		}
		var row exactRow
		if err := json.Unmarshal([]byte(ev.data), &row); err != nil {
			t.Fatalf("event %d data not an exactRow: %v", i, err)
		}
	}
	term := events[len(sim)]
	if term.event != string(StateDone) || term.id != len(sim)+1 {
		t.Fatalf("terminal event = {id %d, %q}", term.id, term.event)
	}
	var summary struct {
		State  string `json:"state"`
		Reads  int    `json:"reads"`
		Mapped int    `json:"mapped"`
	}
	if err := json.Unmarshal([]byte(term.data), &summary); err != nil {
		t.Fatal(err)
	}
	j := getJobJSON(t, ts, 1)
	if summary.State != "done" || summary.Reads != j.Reads || summary.Mapped != j.Mapped {
		t.Errorf("terminal summary %+v does not match job %+v", summary, j)
	}

	// Resume after row N: only rows N+1.. plus the terminal event, and the
	// rows are bit-identical to the full replay.
	from := len(sim) / 2
	resumed := getSSE(t, ts, 1, from)
	if len(resumed) != len(sim)-from+1 {
		t.Fatalf("resume from %d gave %d events, want %d", from, len(resumed), len(sim)-from+1)
	}
	for i, ev := range resumed[:len(resumed)-1] {
		want := events[from+i]
		if ev.id != want.id || ev.data != want.data {
			t.Errorf("resumed event %d differs: %+v vs %+v", i, ev, want)
		}
	}
	// Resuming past the end: just the terminal event.
	if tail := getSSE(t, ts, 1, len(sim)+5); len(tail) != 1 || tail[0].event != string(StateDone) {
		t.Errorf("past-the-end resume: %+v", tail)
	}
}

// A subscriber further behind than one read window is the common case on any
// finished job bigger than streamReadChunk: the window clips mid-line and the
// torn tail must be re-read, not treated as corruption. Regression test — the
// handler used to kill the connection on the first clipped window, so results
// beyond the window size could never be streamed, and a window narrower than
// one row must grow instead of spinning.
func TestStreamBacklogLargerThanReadWindow(t *testing.T) {
	refFasta, readsFastq, _ := testData(t)
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	waitForState(t, ts, 1, StateDone)
	golden := getSSE(t, ts, 1, 0)

	old := streamReadChunk
	defer func() { streamReadChunk = old }()
	// 200 bytes: a few rows per window, clipping mid-line on most reads.
	// 16 bytes: narrower than any row, forcing the window-growth path.
	for _, window := range []int{200, 16} {
		streamReadChunk = window
		events := getSSE(t, ts, 1, 0)
		if len(events) != len(golden) {
			t.Fatalf("window %d: %d events, want %d", window, len(events), len(golden))
		}
		for i, ev := range events {
			if ev.id != golden[i].id || ev.data != golden[i].data {
				t.Fatalf("window %d: event %d differs: %+v vs %+v", window, i, ev, golden[i])
			}
		}
	}
}

// Accept: application/x-ndjson drops the SSE framing: raw NDJSON rows, one
// per read, terminated by an {"event": ...} summary line, and the rows carry
// the same mapping verdicts as the TSV.
func TestStreamNDJSON(t *testing.T) {
	refFasta, readsFastq, sim := testData(t)
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	waitForState(t, ts, 1, StateDone)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/jobs/1/stream?from=0", nil)
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) != len(sim)+1 {
		t.Fatalf("%d NDJSON lines, want %d + summary", len(lines), len(sim))
	}
	wantMapped := map[string]bool{}
	for _, r := range sim {
		wantMapped[r.ID] = r.Origin >= 0
	}
	for _, line := range lines[:len(sim)] {
		var row exactRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("bad NDJSON row %q: %v", line, err)
		}
		if row.Mapped != wantMapped[row.Read] {
			t.Errorf("read %s mapped=%t, want %t", row.Read, row.Mapped, wantMapped[row.Read])
		}
	}
	var terminal struct {
		Event string `json:"event"`
	}
	if err := json.Unmarshal([]byte(lines[len(sim)]), &terminal); err != nil || terminal.Event != "done" {
		t.Errorf("NDJSON terminal line %q", lines[len(sim)])
	}
}

// A subscriber attached while the job is still mapping receives the results
// live and the terminal event when it finishes — and a concurrent Drain must
// not hang on the subscriber. Run under -race.
func TestDrainWithInFlightStream(t *testing.T) {
	refFasta, readsFastq, sim := testData(t)
	s := openServer(t, Config{})
	release := make(chan struct{})
	var once sync.Once
	entered := make(chan struct{}, 1)
	s.testHookBeforeRun = func(j *Job, ctx context.Context) {
		entered <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer once.Do(func() { close(release) })

	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	<-entered // the job is running but held before it maps anything

	type streamResult struct {
		events []sseEvent
		err    error
	}
	got := make(chan streamResult, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/jobs/1/stream", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			got <- streamResult{err: err}
			return
		}
		defer resp.Body.Close()
		var events []sseEvent
		var cur sseEvent
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if cur.event != "" {
					events = append(events, cur)
				}
				cur = sseEvent{}
			case strings.HasPrefix(line, "event: "):
				cur.event = line[7:]
			}
		}
		got <- streamResult{events: events, err: sc.Err()}
	}()

	// Drain while the subscriber is parked on an empty stream, then let the
	// job run. Drain must return once the job is terminal — the subscriber
	// holds no WaitGroup reference — and the subscriber must still get every
	// event.
	s.BeginDrain()
	once.Do(func() { close(release) })
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain with an attached subscriber: %v", err)
	}
	res := <-got
	if res.err != nil {
		t.Fatal(res.err)
	}
	if len(res.events) != len(sim)+1 {
		t.Fatalf("subscriber saw %d events, want %d + terminal", len(res.events), len(sim))
	}
	if last := res.events[len(res.events)-1]; last.event != string(StateDone) {
		t.Errorf("terminal event %q, want done", last.event)
	}
}

// The O(batch) claim: with a small stream batch, the peak result bytes a job
// stages in memory stay far below the full TSV it produced.
func TestPeakResultBufferIsBatchBounded(t *testing.T) {
	refFasta, readsFastq, sim := testData(t)
	s := openServer(t, Config{StreamBatch: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	waitForState(t, ts, 1, StateDone)

	j := getJobJSON(t, ts, 1)
	tsv := fetchResults(t, ts, 1)
	if j.PeakResultBuf <= 0 {
		t.Fatal("peak_result_buffer_bytes not recorded")
	}
	if j.PeakResultBuf >= len(tsv) {
		t.Errorf("peak staged bytes %d >= full TSV %d: batching is not bounding memory (%d reads)",
			j.PeakResultBuf, len(tsv), len(sim))
	}
}

// Durable chunked uploads survive a crash: the journal restores the job in
// state uploading with the offsets the disk holds, the client resumes from
// them, and the finished job matches the undisturbed buffered run. The
// Idempotency-Key is restored too, so a blind resubmission replays instead of
// double-running.
func TestUploadReplayAfterCrash(t *testing.T) {
	refFasta, readsFastq := testDataSmall(t)
	stateDir := t.TempDir()
	s, err := Open(Config{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	waitForState(t, ts, 1, StateDone)
	golden := fetchResults(t, ts, 1)

	// Open a chunked job and feed only part of the reference.
	code, created, _ := doJSON(t, http.MethodPost, ts.URL+"/api/jobs",
		[]byte(`{"backend":"cpu"}`),
		map[string]string{"Content-Type": "application/json", "Idempotency-Key": "crashy"})
	if code != http.StatusCreated {
		t.Fatalf("create returned %d", code)
	}
	id := int(created["id"].(float64))
	cut := len(refFasta) / 2
	if code, _ := putChunk(t, ts, id, "reference", 0, refFasta[:cut]); code != http.StatusOK {
		t.Fatalf("partial chunk returned %d", code)
	}

	// "Crash" mid-upload and restart on the snapshot.
	crashed := snapshotDir(t, stateDir)
	ts.Close()
	s.Close()
	s2, err := Open(Config{StateDir: crashed})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	// The job came back uploading, with the committed offset to resume from.
	j := getJobJSON(t, ts2, id)
	if j.State != string(StateUploading) || j.ReferenceOffset == nil || *j.ReferenceOffset != int64(cut) {
		t.Fatalf("replayed upload job %+v, want uploading at offset %d", j, cut)
	}
	// The idempotency key survived: resubmitting the create replays the job.
	code, replay, hdr := doJSON(t, http.MethodPost, ts2.URL+"/api/jobs",
		[]byte(`{"backend":"cpu"}`),
		map[string]string{"Content-Type": "application/json", "Idempotency-Key": "crashy"})
	if code != http.StatusOK || int(replay["id"].(float64)) != id || hdr.Get("Idempotency-Replayed") != "true" {
		t.Fatalf("post-crash resubmit: %d %v", code, replay)
	}

	// Resume from the journaled offset and finish the job.
	if code, _ := putChunk(t, ts2, id, "reference", int64(cut), refFasta[cut:]); code != http.StatusOK {
		t.Fatalf("resumed chunk returned %d", code)
	}
	if code, _ := putChunk(t, ts2, id, "reads", 0, readsFastq); code != http.StatusOK {
		t.Fatalf("reads chunk returned %d", code)
	}
	code, payload, _ := doJSON(t, http.MethodPost, fmt.Sprintf("%s/api/jobs/%d/finalize", ts2.URL, id), nil, nil)
	if code != http.StatusAccepted {
		t.Fatalf("finalize returned %d: %v", code, payload)
	}
	waitForState(t, ts2, id, StateDone)
	if got := fetchResults(t, ts2, id); !bytes.Equal(got, golden) {
		t.Error("resumed chunked job results differ from the buffered run")
	}

	// The stream of the recovered, finished job replays in full too: the
	// spill survived (or the terminal job re-ran deterministically), so a
	// client that lost its connection in the crash resumes bit-identically.
	events := getSSE(t, ts2, id, 0)
	if len(events) < 2 || events[len(events)-1].event != string(StateDone) {
		t.Fatalf("recovered stream replay: %d events", len(events))
	}
}

// A done job's stream survives a restart: the NDJSON spill is restored and
// served closed, with Last-Event-ID resume still lining up.
func TestStreamReplayAfterRestart(t *testing.T) {
	refFasta, readsFastq, sim := testData(t)
	stateDir := t.TempDir()
	s, err := Open(Config{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": refFasta, "reads": readsFastq})
	waitForState(t, ts, 1, StateDone)
	full := getSSE(t, ts, 1, 0)
	ts.Close()
	s.Close()

	s2, err := Open(Config{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	from := len(sim) - 3
	resumed := getSSE(t, ts2, 1, from)
	if len(resumed) != 4 {
		t.Fatalf("restart resume gave %d events, want 4", len(resumed))
	}
	for i, ev := range resumed[:3] {
		want := full[from+i]
		if ev.id != want.id || ev.data != want.data {
			t.Errorf("restored event %d differs: %+v vs %+v", i, ev, want)
		}
	}
	if resumed[3].event != string(StateDone) {
		t.Errorf("restored terminal event %q", resumed[3].event)
	}
}

// A failed job's stream closes with a failed event carrying the error, so
// subscribers are never left hanging on a job that will produce no rows.
func TestStreamTerminalOnFailure(t *testing.T) {
	_, readsFastq, _ := testData(t)
	s := openServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	submitJob(t, s, ts, map[string]string{"backend": "cpu"},
		map[string][]byte{"reference": []byte("garbage"), "reads": readsFastq})
	waitForState(t, ts, 1, StateFailed)

	events := getSSE(t, ts, 1, 0)
	if len(events) != 1 || events[0].event != string(StateFailed) {
		t.Fatalf("failed job stream: %+v", events)
	}
	var summary struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(events[0].data), &summary); err != nil || summary.Error == "" {
		t.Errorf("failed terminal event carries no error: %q", events[0].data)
	}
}
