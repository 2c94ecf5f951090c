package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/qc"
	"bwaver/internal/runner"
)

// Streamed results. The two-pass flow already produces mappings batch by
// batch; this file stops throwing that incrementality away at the HTTP layer.
// As the mapping loop completes each batch, the runner's encoder (runner.Rows)
// renders its TSV rows and, in the same pass, one NDJSON line per read, and
// the job's emitter appends the rows to the job's results and the lines to
// its result stream; both are spools (spool.go), files under the state dir's
// results/ on a durable server. GET /api/jobs/{id}/stream serves the stream
// as Server-Sent Events — one event per read, ids are 1-based line numbers,
// so a dropped client resumes with Last-Event-ID — or as raw NDJSON when the
// client asks for application/x-ndjson. A terminal event
// (done/failed/canceled) always closes the stream.
//
// Memory: subscribers read the committed stream a window at a time, so on a
// durable server a job holds O(batch) result bytes in memory no matter how
// many reads it maps; the peak is recorded per job
// (peak_result_buffer_bytes).

// streamHeartbeat is how often an idle SSE connection gets a comment line so
// proxies do not reap it.
const streamHeartbeat = 15 * time.Second

// resultStream is a job's append-only result log plus its subscriber wakeup.
// Appends are whole batches of NDJSON lines, so the committed length is
// always line-aligned; subscribers track their own byte offset and line
// count.
type resultStream struct {
	mu     sync.Mutex
	notify chan struct{} // closed and replaced on every append/close
	data   *spool        // the committed lines
	lines  int           // lines appended by this process
	closed bool
	// terminal is the closing event: kind done/failed/canceled plus a JSON
	// summary payload.
	terminalKind string
	terminalData []byte
}

// start points the stream at data, the fresh spool of a run that is about to
// emit: a re-run after a crash rewrites the log from scratch, keeping event
// ids aligned with the deterministic re-mapping.
func (st *resultStream) start(data *spool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.data, st.lines = data, 0
}

// append commits a batch of NDJSON lines and wakes subscribers.
func (st *resultStream) append(data []byte, lines int) error {
	if len(data) == 0 {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.data.append(data); err != nil {
		return err
	}
	st.lines += lines
	close(st.notify)
	st.notify = make(chan struct{})
	return nil
}

// close seals the stream with its terminal event, flushing it to disk on a
// durable server. Safe to call once per stream; later calls are ignored.
func (st *resultStream) close(kind string, data []byte) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	st.closed = true
	st.terminalKind, st.terminalData = kind, data
	// Best-effort: no journal record references the stream, and a replay
	// serves whatever part of it survived.
	st.data.sync()
	close(st.notify)
	st.notify = make(chan struct{})
}

// closedStream is the stream of a job that ended before anything subscribed
// in this process: data is what it left (a replayed job's surviving spill,
// torn tail and all, or nothing), then its terminal event. s.mu must be held.
func closedStream(job *Job, data *spool) *resultStream {
	kind, ev := terminalEventLocked(job)
	return &resultStream{data: data, notify: make(chan struct{}), closed: true, terminalKind: kind, terminalData: ev}
}

// snapshot returns the committed extent and terminal state.
func (st *resultStream) snapshot() (committed int64, lines int, closed bool, kind string, data []byte) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.data.size(), st.lines, st.closed, st.terminalKind, st.terminalData
}

// waitCh returns the channel that will be closed on the next append or close.
func (st *resultStream) waitCh() chan struct{} {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.notify
}

// readCommitted returns committed bytes in [off, off+limit). The caller owns
// the returned slice.
func (st *resultStream) readCommitted(off int64, limit int) ([]byte, error) {
	st.mu.Lock()
	data := st.data
	st.mu.Unlock()
	return data.readAt(off, limit)
}

// streamName is the spill file for a job's NDJSON result stream, next to its
// TSV under the state dir's results/ directory.
func streamName(id int) string {
	return filepath.Join(resultsDir, fmt.Sprintf("job-%d.ndjson", id))
}

// ensureStreamLocked lazily attaches a job's result stream; s.mu must be
// held. Until the job's emitter starts it the stream is empty; one attached
// to a job that already ended comes back closed. (recover attaches a
// replayed terminal job's stream to its spill.)
func (s *Server) ensureStreamLocked(job *Job) *resultStream {
	switch {
	case job.stream != nil:
	case job.State.terminal():
		job.stream = closedStream(job, &spool{})
	default:
		job.stream = &resultStream{data: &spool{}, notify: make(chan struct{})}
	}
	return job.stream
}

// terminalEventLocked renders a job's closing stream event; s.mu must be
// held.
func terminalEventLocked(job *Job) (kind string, data []byte) {
	kind = string(job.State)
	payload := map[string]any{
		"state":  string(job.State),
		"reads":  job.Reads,
		"mapped": job.Mapped,
	}
	if job.Error != "" {
		payload["error"] = job.Error
	}
	data, _ = json.Marshal(payload)
	return kind, data
}

// jobEmitter commits a job's batches as the runner emits them: each batch's
// text (TSV, or SAM for a mem job) to the results spool and its NDJSON lines,
// rendered beside the text by the runner's encoder, to the result stream. It
// tracks the peak bytes staged in memory for one batch, the figure that
// proves the O(batch) claim.
type jobEmitter struct {
	s      *Server
	job    *Job
	stream *resultStream
	tsv    *spool
	rows   *runner.Rows
	peak   int
}

// newEmitter opens a job's result spools at their journal-contract names
// (results/job-N.tsv and .ndjson) and its streaming encoder over ix; sync
// fsyncs the results before the done record that references them is
// appended.
func (s *Server) newEmitter(job *Job, ix *core.Index) (*jobEmitter, error) {
	tsv, err := s.newSpool(resultsName(job.ID))
	if err != nil {
		return nil, fmt.Errorf("opening results file: %w", err)
	}
	nd, err := s.newSpool(streamName(job.ID))
	if err != nil {
		tsv.remove()
		return nil, fmt.Errorf("opening result stream: %w", err)
	}
	s.mu.Lock()
	st := s.ensureStreamLocked(job)
	s.mu.Unlock()
	st.start(nd)
	rows := runner.NewRows(ix)
	rows.Stream = true
	return &jobEmitter{s: s, job: job, stream: st, tsv: tsv, rows: rows}, nil
}

// emit commits one batch: its text, then its lines, one stream event per
// reject and per read.
func (em *jobEmitter) emit(b qc.Batch, text, lines []byte) error {
	em.peak = max(em.peak, len(text)+len(lines))
	if err := em.tsv.append(text); err != nil {
		return err
	}
	events := len(b.Rejects) + len(b.Seqs)
	if err := em.stream.append(lines, events); err != nil {
		return err
	}
	em.s.mStreamEvents.With().Add(float64(events))
	return nil
}

// sync seals the results after a successful mapping run: they are fsync'd
// (the done record follows in endJob) and handed to the job. The stream's
// terminal event is emitted later by endJob, which knows the final state.
func (em *jobEmitter) sync() error {
	if err := em.tsv.sync(); err != nil {
		return fmt.Errorf("persisting results: %w", err)
	}
	em.s.mu.Lock()
	em.job.PeakResultBuf = em.peak
	em.job.results = em.tsv
	em.s.mu.Unlock()
	return nil
}

// remove abandons the results after a failed or canceled run; the journal's
// non-done record makes a restart re-run the job from its payloads anyway.
func (em *jobEmitter) remove() {
	em.s.mu.Lock()
	em.job.PeakResultBuf = em.peak
	em.s.mu.Unlock()
	em.tsv.remove()
}

// parseLastEventID extracts the resume point: the Last-Event-ID header (SSE
// reconnects send it automatically) or an explicit ?from=N.
func parseLastEventID(r *http.Request) int {
	v := r.Header.Get("Last-Event-ID")
	if q := r.URL.Query().Get("from"); q != "" {
		v = q
	}
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// wantsNDJSON reports whether the client asked for raw NDJSON instead of SSE
// framing.
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// streamReadChunk bounds how many committed bytes one handler iteration pulls
// (a starting point: handleStream grows its window when a single row is
// wider). A var so tests can shrink it to exercise the clipping paths.
var streamReadChunk = 1 << 20

// handleStream serves a job's results as they are produced. SSE framing by
// default: one `event: result` per read with `id:` the 1-based row number and
// `data:` its NDJSON line, closed by a terminal done/failed/canceled event
// whose data is the job summary. `Last-Event-ID: N` (or ?from=N) resumes
// after row N — after a crash the replayed job re-maps deterministically, so
// resumed rows are bit-identical to the ones the client already holds. With
// `Accept: application/x-ndjson` the same lines are sent unframed, terminated
// by a {"event": ...} summary line.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobByRequest(r)
	if err != nil {
		jsonError(w, http.StatusNotFound, err.Error())
		return
	}
	s.mu.Lock()
	st := s.ensureStreamLocked(job)
	s.mu.Unlock()
	s.mStreamSubscribers.With().Add(1)
	defer s.mStreamSubscribers.With().Add(-1)

	ndjson := wantsNDJSON(r)
	if ndjson {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("X-Accel-Buffering", "no")
	}
	w.WriteHeader(http.StatusOK)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	flush()

	skip := parseLastEventID(r)
	line := 0 // rows scanned so far (event id of the last scanned row)
	var off int64
	readMax := streamReadChunk
	heartbeat := time.NewTicker(streamHeartbeat)
	defer heartbeat.Stop()
	for {
		// The wake-up channel is taken before the look, so an append or the
		// close landing between the two still wakes this subscriber instead
		// of leaving it to the next heartbeat.
		wait := st.waitCh()
		committed, _, closed, kind, data := st.snapshot()
		if off >= committed {
			if closed {
				if ndjson {
					fmt.Fprintf(w, "{\"event\":%q,\"summary\":%s}\n", kind, data)
				} else {
					fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", line+1, kind, data)
				}
				flush()
				return
			}
			select {
			case <-wait:
			case <-heartbeat.C:
				if !ndjson {
					fmt.Fprint(w, ": keepalive\n\n")
					flush()
				}
			case <-r.Context().Done():
				return
			}
			continue
		}
		chunk, err := st.readCommitted(off, readMax)
		if err != nil {
			s.log.Error("result stream read failed", "job", job.ID, "err", err)
			return
		}
		// Commits are whole batches of lines, so the committed extent always
		// ends on a line boundary — but the read window may clip mid-line
		// whenever the subscriber is more than readMax bytes behind. A torn
		// tail is therefore normal: leave it unconsumed (off stays at the line
		// start) and let the next readCommitted from off pick it up whole.
		windowClipped := len(chunk) == readMax
		progressed := false
		for len(chunk) > 0 {
			nl := bytes.IndexByte(chunk, '\n')
			if nl < 0 {
				if windowClipped {
					// If the window held no complete line at all, a single
					// row is wider than it: grow so the re-read makes
					// progress instead of spinning.
					if !progressed {
						readMax *= 2
					}
					break
				}
				if closed {
					// A crash-torn tail of a restored spill; no append will
					// ever complete it, so skip to the terminal event.
					off = committed
					break
				}
				s.log.Error("result stream holds a torn line", "job", job.ID)
				return
			}
			progressed = true
			row := chunk[:nl]
			off += int64(nl + 1)
			chunk = chunk[nl+1:]
			line++
			if line <= skip {
				continue
			}
			if ndjson {
				w.Write(row)
				w.Write([]byte{'\n'})
			} else {
				fmt.Fprintf(w, "id: %d\nevent: result\ndata: %s\n\n", line, row)
			}
		}
		flush()
		if r.Context().Err() != nil {
			return
		}
	}
}
