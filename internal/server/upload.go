package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"bwaver/internal/obs"
)

// Chunked, resumable job ingest. The multipart POST /jobs path takes the
// whole upload in one request, which gives a flaky client nothing to resume.
// The streaming protocol splits submission into three steps:
//
//	POST /api/jobs                      -> job shell in state "uploading"
//	PUT  /api/jobs/{id}/reference?offset=N   (repeat per chunk, both parts)
//	PUT  /api/jobs/{id}/reads?offset=N
//	POST /api/jobs/{id}/finalize        -> payload sealed, job queued
//
// Chunks append at the committed offset; a client that lost an ACK re-sends
// and the duplicate is recognized (offset+len inside the committed extent is
// a no-op ACK), a client that crashed asks GET /api/jobs/{id} for the
// committed offsets and resumes. Each part is a spool at the job's payload
// name, so in durable mode chunks land directly in the journal's payloads/
// layout and replay extends to partial uploads: a restarted server restores
// the job in state uploading with the offsets the disk actually holds. An
// uploading job occupies an admission queue slot (backpressure composes with
// -max-queue), oversized uploads are shed with the structured admission
// envelope, and -upload-timeout fails uploads whose client went away so the
// slot frees.
//
// Idempotent retries: an Idempotency-Key header on any submission path is
// remembered with the job (journaled in its accepted/uploading record), so a
// retry after a 429/503, a drain, or a crash returns the original job —
// offsets and all — instead of double-running it.

// uploadState tracks a chunked job's payload progress: the two parts as far
// as they are committed.
type uploadState struct {
	mu           sync.Mutex
	ref, reads   *spool
	lastActivity time.Time
	// sealed flips when finalize (or a terminal failure) takes the payload
	// out of the upload path; chunk appends re-check it under mu so a
	// straggler cannot write after the extent was fsync'd and launched.
	sealed bool
}

// part returns the named part, "reference" or "reads".
func (up *uploadState) part(name string) *spool {
	if name == "reads" {
		return up.reads
	}
	return up.ref
}

// seal marks the payload closed to further chunk appends.
func (up *uploadState) seal() {
	up.mu.Lock()
	up.sealed = true
	up.mu.Unlock()
}

// discard seals the payload and deletes both parts, for a job that ends
// before it launches.
func (up *uploadState) discard() {
	up.mu.Lock()
	defer up.mu.Unlock()
	up.sealed = true
	up.ref.remove()
	up.reads.remove()
}

// openUpload gives a chunked job its two parts, empty spools at its payload
// names; a cancel that ended the job while they were created finds no upload
// to discard, so the parts are discarded here.
func (s *Server) openUpload(job *Job) error {
	refRel, readsRel := payloadNames(job.ID)
	up := &uploadState{lastActivity: job.Created}
	var err error
	if up.ref, err = s.newSpool(refRel); err != nil {
		return err
	}
	if up.reads, err = s.newSpool(readsRel); err != nil {
		up.ref.remove()
		return err
	}
	s.mu.Lock()
	job.upload = up
	ended := job.State.terminal()
	s.mu.Unlock()
	if ended {
		up.discard()
	}
	return nil
}

// Upload rejection reasons, shaped like the admission envelope.
const (
	reasonTooLarge     = "too_large"
	reasonBadOffset    = "bad_offset"
	reasonWrongState   = "wrong_state"
	reasonEmptyPayload = "empty_payload"
)

// idemLookup returns the job a previously seen Idempotency-Key maps to.
func (s *Server) idemLookup(key string) *Job {
	if key == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.idemKeys[key]; ok {
		return s.jobs[id]
	}
	return nil
}

// respondIdempotentReplay answers a retried submission with the original job.
func (s *Server) respondIdempotentReplay(w http.ResponseWriter, job *Job) {
	s.mu.Lock()
	payload := job.toJSON()
	s.mu.Unlock()
	w.Header().Set("Idempotency-Replayed", "true")
	writeJSON(w, http.StatusOK, payload)
}

// maxCreateBody bounds a chunked create's body: parameters only, the payload
// follows in chunk PUTs.
const maxCreateBody = 1 << 20

// handleCreateJob opens a streaming job: parameters now, payload later via
// chunk PUTs. The parameters come as a JSON body whose keys are the form
// fields, or as a form (DecodeForm's precedence); an Idempotency-Key header
// makes the create retryable.
func (s *Server) handleCreateJob(w http.ResponseWriter, r *http.Request) {
	idemKey := strings.TrimSpace(r.Header.Get("Idempotency-Key"))
	if job := s.idemLookup(idemKey); job != nil {
		s.respondIdempotentReplay(w, job)
		return
	}
	if ae := s.preAdmit(r); ae != nil {
		s.rejectAdmission(w, ae)
		return
	}
	params, err := decodeCreate(w, r)
	if err != nil {
		jsonError(w, http.StatusBadRequest, err.Error())
		return
	}
	job, existing, ae := s.admitJob(jobSpec{
		JobParams: params,
		IdemKey:   idemKey,
		RequestID: obs.RequestIDFrom(r.Context()),
		Timeout:   s.effectiveTimeout(r),
	}, stateUploading)
	if ae != nil {
		s.rejectAdmission(w, ae)
		return
	}
	if existing {
		s.respondIdempotentReplay(w, job)
		return
	}
	if err = s.openUpload(job); err == nil {
		err = s.journal.append(specRecord(recUploading, job))
	}
	if err != nil {
		s.endJob(job, endBeforeLaunch, stateFailed, "journal: "+err.Error())
		jsonError(w, http.StatusInternalServerError, "could not persist job")
		return
	}
	s.log.Info("streaming job opened", "job", job.ID, "backend", job.Backend)
	writeJSON(w, http.StatusCreated, s.uploadStatus(job))
}

// decodeCreate reads a chunked create's parameters off a JSON body or a form.
func decodeCreate(w http.ResponseWriter, r *http.Request) (JobParams, error) {
	r.Body = http.MaxBytesReader(w, r.Body, maxCreateBody)
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		return decodeJSON(r.Body)
	}
	if err := r.ParseMultipartForm(maxCreateBody); err != nil && !errors.Is(err, http.ErrNotMultipart) {
		return JobParams{}, fmt.Errorf("bad request body: %w", err)
	}
	return DecodeForm(r.URL.Query(), r.PostForm)
}

// uploadStatus is the client's resume anchor: the committed offset per part.
func (s *Server) uploadStatus(job *Job) map[string]any {
	s.mu.Lock()
	state, up := job.State, job.upload
	s.mu.Unlock()
	refN, readsN := up.ref.size(), up.reads.size()
	return map[string]any{
		"id":               job.ID,
		"state":            string(state),
		"reference_offset": refN,
		"reads_offset":     readsN,
	}
}

// handleUploadChunk appends one chunk to a part ("reference" or "reads") at
// the committed offset. Responses always carry the committed offset, so a
// client can resynchronize from any reply.
func (s *Server) handleUploadChunk(part string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		job, err := s.jobByRequest(r)
		if err != nil {
			jsonError(w, http.StatusNotFound, err.Error())
			return
		}
		if s.isDraining() {
			// Mid-upload drain: the chunk is refused but the job keeps its
			// journaled partial payload; the client resumes against the
			// replacement instance after replay.
			writeAdmissionError(w, &admissionError{
				status: http.StatusServiceUnavailable, reason: reasonDraining,
				msg: "server is draining; resume the upload after restart", retryAfter: drainRetryAfter,
			})
			return
		}
		s.mu.Lock()
		state := job.State
		up := job.upload
		s.mu.Unlock()
		if state != stateUploading || up == nil {
			writeJSON(w, http.StatusConflict, map[string]any{
				"error":  fmt.Sprintf("job %d is %s; not accepting chunks", job.ID, state),
				"reason": reasonWrongState,
				"state":  string(state),
			})
			return
		}

		up.mu.Lock()
		defer up.mu.Unlock()
		if up.sealed {
			// Finalize (or a terminal failure) won the race between our state
			// check and taking up.mu; the payload may already be fsync'd and
			// parsing, so a straggler append must be refused.
			writeJSON(w, http.StatusConflict, map[string]any{
				"error":  fmt.Sprintf("job %d payload is sealed; not accepting chunks", job.ID),
				"reason": reasonWrongState,
			})
			return
		}
		p := up.part(part)
		committed := p.size()
		offset := committed
		if q := r.URL.Query().Get("offset"); q != "" {
			n, err := strconv.ParseInt(q, 10, 64)
			if err != nil || n < 0 {
				jsonError(w, http.StatusBadRequest, "bad offset: "+q)
				return
			}
			offset = n
		}
		if offset > committed {
			writeJSON(w, http.StatusConflict, map[string]any{
				"error":            fmt.Sprintf("offset %d is past the committed extent %d", offset, committed),
				"reason":           reasonBadOffset,
				"committed_offset": committed,
			})
			return
		}
		// The size cap charges only bytes that extend the committed extent:
		// a chunk at offset grows this part by offset+len-committed, so a
		// retransmit of already-committed bytes (a lost ACK) is free and stays
		// idempotent even when the upload sits at the cap.
		total := up.ref.size() + up.reads.size()
		limit := s.cfg.MaxUploadBytes - total + (committed - offset)
		if limit < 0 {
			limit = 0
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit+1))
		if err != nil && !errors.As(err, new(*http.MaxBytesError)) && int64(len(body)) <= limit {
			// A transient body-read failure (client vanished mid-chunk, network
			// blip) fails only this request; the job stays uploading at its
			// committed offset so the client can resume — that is the whole
			// point of the chunked protocol.
			jsonError(w, http.StatusBadRequest, "reading chunk body: "+err.Error())
			return
		}
		if err != nil || int64(len(body)) > limit {
			// Oversized upload: shed with the admission envelope and fail the
			// job so its queue slot frees instead of lingering half-fed.
			up.mu.Unlock()
			s.endJob(job, endBeforeLaunch, stateFailed, fmt.Sprintf("upload exceeds the %d byte cap", s.cfg.MaxUploadBytes))
			up.mu.Lock()
			writeAdmissionError(w, &admissionError{
				status: http.StatusRequestEntityTooLarge, reason: reasonTooLarge,
				msg: fmt.Sprintf("upload exceeds the %d byte cap", s.cfg.MaxUploadBytes), retryAfter: time.Second,
			})
			return
		}
		up.lastActivity = time.Now()
		if offset < committed {
			if offset+int64(len(body)) <= committed {
				// Retransmit of bytes already committed (the ACK was lost):
				// acknowledge idempotently.
				writeJSON(w, http.StatusOK, map[string]any{"id": job.ID, "part": part, "offset": committed})
				return
			}
			writeJSON(w, http.StatusConflict, map[string]any{
				"error":            fmt.Sprintf("chunk [%d,%d) straddles the committed extent %d", offset, offset+int64(len(body)), committed),
				"reason":           reasonBadOffset,
				"committed_offset": committed,
			})
			return
		}
		if err := p.append(body); err != nil {
			s.log.Error("appending upload chunk failed", "job", job.ID, "part", part, "err", err)
			jsonError(w, http.StatusInternalServerError, "could not persist chunk")
			return
		}
		s.mUploadChunks.With(part).Inc()
		s.mUploadBytes.With(part).Add(float64(len(body)))
		writeJSON(w, http.StatusOK, map[string]any{"id": job.ID, "part": part, "offset": p.size()})
	}
}

// handleFinalize seals a chunked payload and queues the job. Finalize is
// idempotent: repeating it after the job launched answers 200 with the job's
// current state instead of erroring a retrying client.
func (s *Server) handleFinalize(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobByRequest(r)
	if err != nil {
		jsonError(w, http.StatusNotFound, err.Error())
		return
	}
	s.mu.Lock()
	if job.upload == nil {
		s.mu.Unlock()
		writeJSON(w, http.StatusConflict, map[string]any{
			"error":  fmt.Sprintf("job %d was not submitted through the chunked protocol", job.ID),
			"reason": reasonWrongState,
		})
		return
	}
	if job.State != stateUploading {
		payload := job.toJSON()
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, payload)
		return
	}
	if s.draining {
		s.mu.Unlock()
		writeAdmissionError(w, &admissionError{
			status: http.StatusServiceUnavailable, reason: reasonDraining,
			msg: "server is draining; not accepting new jobs", retryAfter: drainRetryAfter,
		})
		return
	}
	up := job.upload
	refN, readsN := up.ref.size(), up.reads.size()
	if refN == 0 || readsN == 0 {
		s.mu.Unlock()
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error":            "finalize before both parts were uploaded",
			"reason":           reasonEmptyPayload,
			"reference_offset": refN,
			"reads_offset":     readsN,
		})
		return
	}
	s.setJobStateLocked(job, stateQueued)
	// Seal before the payload is fsync'd and handed to the parser: a chunk
	// PUT that passed its state check before this transition re-checks the
	// flag under up.mu and is refused instead of appending to a live payload.
	up.seal()
	// Cover the finalize->launch window in the drain WaitGroup, exactly like
	// admitJob does for buffered submissions; acceptAndLaunch drops it.
	s.wg.Add(1)
	s.mu.Unlock()

	// journalAccept fsyncs the accumulated chunks before the accepted record
	// references them, as it does for every route.
	if err := s.acceptAndLaunch(job, jobInput{ref: up.ref, reads: up.reads}); err != nil {
		s.log.Error("accepting finalized job failed", "job", job.ID, "err", err)
		jsonError(w, http.StatusInternalServerError, "could not persist job")
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"id": job.ID, "state": string(stateQueued)})
}

// sweepStalledUploads fails uploading jobs idle past the configured timeout,
// so an abandoned client cannot hold an admission queue slot forever. Returns
// how many were failed.
func (s *Server) sweepStalledUploads(now time.Time) int {
	timeout := s.cfg.UploadTimeout
	if timeout <= 0 {
		return 0
	}
	s.mu.Lock()
	var stalled []*Job
	for _, j := range s.jobs {
		if j.State != stateUploading || j.upload == nil {
			continue
		}
		j.upload.mu.Lock()
		last := j.upload.lastActivity
		j.upload.mu.Unlock()
		if last.IsZero() {
			last = j.Created
		}
		if now.Sub(last) > timeout {
			stalled = append(stalled, j)
		}
	}
	s.mu.Unlock()
	for _, j := range stalled {
		s.log.Warn("failing stalled upload", "job", j.ID, "timeout", timeout)
		s.endJob(j, endBeforeLaunch, stateFailed, fmt.Sprintf("upload stalled past the %v timeout", timeout))
	}
	return len(stalled)
}
