package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"bwaver/internal/qc"
)

// Durable job journal. A bwaver-server restart used to lose every queued and
// running job silently; with a -state-dir the server now appends one fsync'd
// JSON record per lifecycle transition (accepted → running → done / failed /
// canceled, plus uploading for chunked ingest and evicted) to
// <state-dir>/journal.jsonl. Raw uploads are spooled under payloads/ as they
// arrive — multipart parts under a staged name until the job is accepted,
// chunked parts at their payload names chunk by chunk — fsync'd when the job
// is accepted and deleted once it is terminal; results TSVs and NDJSON stream
// logs are persisted under results/ before the done record is written, so a
// record never vouches for data that a crash could have lost. Every file a
// job owns is named by its id alone (payloadNames, resultsName, streamName):
// a record names no path, so a hand-edited or hostile journal cannot point
// the server at a file outside the state dir. On startup the journal is
// replayed: terminal jobs are restored with their on-disk results, uploading
// jobs come back resumable at their committed offsets, unfinished jobs are
// re-queued against their saved payloads, staged parts are deleted, and the
// log is compacted to one record per live job. Built indexes are spilled
// under indexes/ by the cache (see cache.go), so a replayed job usually skips
// reconstruction.

// Journal record types. uploading marks a chunked job whose payload is still
// arriving (its partial payload files are authoritative on disk);
// accepted/running mark forward progress; the three terminal types mirror
// JobState; evicted marks a TTL-swept job so replay does not resurrect it
// (compaction then drops it entirely).
const (
	recUploading = "uploading"
	recAccepted  = "accepted"
	recRunning   = "running"
	recDone      = "done"
	recFailed    = "failed"
	recCanceled  = "canceled"
	recEvicted   = "evicted"
)

// journalRecord is one line of journal.jsonl. Records are cumulative, and
// each carries only what it adds: uploading and accepted records the job's
// spec, terminal records its outcome, running and evicted records their type,
// job and time alone. Compacted snapshots carry the spec and, for a job that
// ended, the outcome, so a compacted journal is self-contained line by line.
type journalRecord struct {
	Type string    `json:"type"`
	Job  int       `json:"job"`
	Time time.Time `json:"time"`

	// Spec: the job's params, nil on a record that carries none.
	*JobParams
	// IdemKey is the client's Idempotency-Key, replayed with the job so
	// post-restart retries still map to it.
	IdemKey string `json:"idem_key,omitempty"`
	// RequestID is the X-Request-Id of the originating submission, restored
	// on replay so cross-process traces survive a worker restart.
	RequestID string     `json:"request_id,omitempty"`
	Created   *time.Time `json:"created,omitempty"`

	// Outcome: what the job came to and when it ended, nil on a record that
	// carries none.
	*Outcome
	Finished *time.Time `json:"finished,omitempty"`
}

// journal owns the state directory: the append-only log plus the payload and
// result files the records reference. All methods are safe for concurrent
// use and a nil *journal is a valid no-op (stateless server).
type journal struct {
	mu  sync.Mutex
	dir string
	f   *os.File
	log *slog.Logger
}

// Well-known names inside the state directory.
const (
	journalFile   = "journal.jsonl"
	payloadsDir   = "payloads"
	resultsDir    = "results"
	indexSpillDir = "indexes"
)

// openJournal creates the state-dir layout and opens the log for appending.
func openJournal(dir string, log *slog.Logger) (*journal, error) {
	for _, d := range []string{dir, filepath.Join(dir, payloadsDir), filepath.Join(dir, resultsDir), filepath.Join(dir, indexSpillDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("server: state dir: %w", err)
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server: opening journal: %w", err)
	}
	return &journal{dir: dir, f: f, log: log}, nil
}

func (jl *journal) close() {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f != nil {
		jl.f.Close()
		jl.f = nil
	}
}

// append writes one record and fsyncs the log, so an acknowledged transition
// survives a crash in the very next instruction.
func (jl *journal) append(rec journalRecord) error {
	if jl == nil {
		return nil
	}
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f == nil {
		return fmt.Errorf("server: journal closed")
	}
	if _, err := jl.f.Write(line); err != nil {
		return fmt.Errorf("server: appending journal record: %w", err)
	}
	return jl.f.Sync()
}

// appendBestEffort journals a transition whose loss only degrades recovery
// fidelity (the job re-runs or re-reports); failures are logged, not fatal.
func (jl *journal) appendBestEffort(rec journalRecord) {
	if jl == nil {
		return
	}
	if err := jl.append(rec); err != nil {
		jl.log.Error("journal append failed", "type", rec.Type, "job", rec.Job, "err", err)
	}
}

// payloadNames returns the conventional payload file names for a job.
func payloadNames(id int) (ref, reads string) {
	return filepath.Join(payloadsDir, fmt.Sprintf("job-%d-ref", id)),
		filepath.Join(payloadsDir, fmt.Sprintf("job-%d-reads", id))
}

// resultsName returns the conventional results file name for a job.
func resultsName(id int) string {
	return filepath.Join(resultsDir, fmt.Sprintf("job-%d.tsv", id))
}

// abs resolves a state-dir-relative name to its absolute path.
func (jl *journal) abs(rel string) string {
	return filepath.Join(jl.dir, rel)
}

// removeFiles deletes state-dir-relative names.
func (jl *journal) removeFiles(rels ...string) {
	if jl == nil {
		return
	}
	for _, rel := range rels {
		os.Remove(filepath.Join(jl.dir, rel))
	}
}

// load reads every decodable record. A torn final line — the signature of a
// crash mid-append — is tolerated: replay stops at the first undecodable
// line and logs what it skipped, because everything before it was fsync'd.
func (jl *journal) load() ([]journalRecord, error) {
	f, err := os.Open(filepath.Join(jl.dir, journalFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	var recs []journalRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			jl.log.Warn("journal holds a torn record; ignoring the tail",
				"line", line, "err", err)
			break
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return recs, fmt.Errorf("server: scanning journal: %w", err)
	}
	return recs, nil
}

// compact atomically rewrites the journal to exactly recs (one snapshot per
// live job) and reopens the append handle. Called once at startup after
// replay, so the log does not grow without bound across restarts.
func (jl *journal) compact(recs []journalRecord) error {
	var buf bytes.Buffer
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	path := filepath.Join(jl.dir, journalFile)
	tmp, err := os.CreateTemp(jl.dir, journalFile+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.f != nil {
		jl.f.Close()
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		jl.f = nil
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		jl.f = nil
		return err
	}
	jl.f = f
	return nil
}

// foldedJob is a job's state reconstructed from its journal records.
type foldedJob struct {
	spec journalRecord // cumulative spec fields (accepted / compacted)
	last journalRecord // most recent record, decides the state
}

// foldRecords reduces the log to per-job state, latest record winning, and
// drops evicted jobs and ids the server never hands out (below 1, or the
// largest int, past which no next id exists). Order of spec vs. terminal
// records does not matter: a canceled-before-accepted pair (possible when a
// client cancels in the createJob→launch window) folds the same either way.
func foldRecords(recs []journalRecord) map[int]*foldedJob {
	jobs := map[int]*foldedJob{}
	for _, rec := range recs {
		if rec.Job < 1 || rec.Job == math.MaxInt {
			continue
		}
		fj := jobs[rec.Job]
		if fj == nil {
			fj = &foldedJob{}
			jobs[rec.Job] = fj
		}
		if rec.JobParams != nil {
			fj.spec.JobParams, fj.spec.Created = rec.JobParams, rec.Created
		}
		if rec.IdemKey != "" {
			fj.spec.IdemKey = rec.IdemKey
		}
		if rec.RequestID != "" {
			fj.spec.RequestID = rec.RequestID
		}
		// Progress records only advance the state (uploading → accepted →
		// running); terminal records override everything, whatever order the
		// log holds them in.
		switch rec.Type {
		case recUploading:
			if fj.last.Type == "" {
				fj.last = rec
			}
		case recAccepted:
			if fj.last.Type == "" || fj.last.Type == recUploading {
				fj.last = rec
			}
		default:
			fj.last = rec
		}
	}
	for id, fj := range jobs {
		if fj.last.Type == recEvicted {
			delete(jobs, id)
		}
	}
	return jobs
}

// snapshotRecord renders a job's current state as one self-contained record,
// the unit of journal compaction: its spec and, once it has ended, its
// outcome.
func snapshotRecord(j *Job) journalRecord {
	rec := specRecord(recAccepted, j)
	rec.Time = time.Now()
	if j.State != stateQueued {
		rec.Type = string(j.State)
	}
	if j.State.terminal() {
		out, finished := j.Outcome, j.Finished
		rec.Outcome, rec.Finished = &out, &finished
	}
	return rec
}

// specRecord starts a record of type typ with the job's spec, what a replay
// needs to run it again: parameters, policy and identity. Its payloads are
// named by its id.
func specRecord(typ string, job *Job) journalRecord {
	return journalRecord{
		Type:      typ,
		Job:       job.ID,
		JobParams: &job.JobParams, // fixed once the job is admitted
		IdemKey:   job.IdemKey,
		RequestID: job.RequestID,
		Created:   &job.Created, // fixed once the job is admitted
	}
}

// journalAccept makes a job's inputs durable and appends its accepted record,
// in that order: both parts are fsync'd and take the job's payload names
// (a staged multipart part is renamed; a chunked one is there already), so
// the record never points at bytes a crash could lose. This happens before
// launch: once the submit handler responds, the job is durable. Acceptance
// is the one transition whose journal failure fails the job — admitting work
// the server cannot make durable would break the crash-safety contract — and
// the parts are removed with it.
func (s *Server) journalAccept(job *Job, in jobInput) error {
	if s.journal == nil {
		return nil
	}
	refRel, readsRel := payloadNames(job.ID)
	err := firstErr(in.ref.sync(), in.reads.sync())
	if err == nil {
		err = firstErr(in.ref.moveTo(s.journal.abs(refRel)), in.reads.moveTo(s.journal.abs(readsRel)))
	}
	if err == nil {
		err = s.journal.append(specRecord(recAccepted, job))
	}
	if err != nil {
		in.remove()
	}
	return err
}

// recover replays the journal into the server: terminal jobs come back with
// their results, unfinished jobs are re-queued against their saved payloads,
// staged upload parts a crash left behind are deleted, and the log is
// compacted. Called from Open before the server accepts traffic.
func (s *Server) recover() error {
	recs, err := s.journal.load()
	if err != nil {
		return err
	}
	staged, err := filepath.Glob(s.journal.abs(stagedPayload))
	if err != nil {
		return err
	}
	for _, path := range staged {
		os.Remove(path)
	}
	folded := foldRecords(recs)
	type relaunch struct {
		job *Job
		in  jobInput
	}
	var relaunches []relaunch
	var compacted []journalRecord

	// Deterministic order: ascending job ID.
	ids := make([]int, 0, len(folded))
	for id := range folded {
		ids = append(ids, id)
	}
	slices.Sort(ids)

	s.mu.Lock()
	for _, id := range ids {
		fj := folded[id]
		if id >= s.nextID {
			s.nextID = id + 1
		}
		job := &Job{ID: id, IdemKey: fj.spec.IdemKey, RequestID: fj.spec.RequestID, Created: fj.last.Time}
		if fj.spec.JobParams != nil {
			job.JobParams = *fj.spec.JobParams
		}
		if c := fj.spec.Created; c != nil && !c.IsZero() {
			job.Created = *c
		}
		if JobState(fj.last.Type).terminal() {
			// A terminal job comes back with the outcome its record holds,
			// whole: what its JSON showed before the restart.
			if o := fj.last.Outcome; o != nil {
				job.Outcome = *o
			}
			if f := fj.last.Finished; f != nil {
				job.Finished = *f
			}
		}
		refRel, readsRel := payloadNames(id)
		switch fj.last.Type {
		case recDone:
			// The results stay on disk and are served from there; loading
			// them here would make replay memory O(sum of all job results).
			if results, err := fileSpool(s.journal.abs(resultsName(id))); err != nil {
				// The record promised results the disk no longer has: fail
				// the job visibly rather than serving an empty download.
				s.setJobStateLocked(job, stateFailed)
				if job.Error == "" {
					job.Error = fmt.Sprintf("journaled results lost: %v", err)
				}
			} else {
				s.setJobStateLocked(job, stateDone)
				// A done job mapped every read it took; records written
				// before the outcome carried done lack the count.
				job.results, job.Done = results, job.Reads
			}
		case recFailed, recCanceled:
			s.setJobStateLocked(job, JobState(fj.last.Type))
		case recUploading:
			// A partial upload survives the crash: restore the job with the
			// committed offsets the disk actually holds, so the client's next
			// GET /api/jobs/{id} tells it where to resume; a part missing
			// from the disk has no chunk committed yet.
			ref, _ := fileSpool(s.journal.abs(refRel))
			reads, _ := fileSpool(s.journal.abs(readsRel))
			job.upload = &uploadState{lastActivity: time.Now(), ref: ref, reads: reads}
			s.setJobStateLocked(job, stateUploading)
		default: // accepted or running: re-queue against the saved payloads
			ref, refErr := fileSpool(s.journal.abs(refRel))
			reads, readsErr := fileSpool(s.journal.abs(readsRel))
			if err := firstErr(refErr, readsErr); err != nil {
				s.setJobStateLocked(job, stateFailed)
				job.Error = fmt.Sprintf("journaled payloads lost: %v", err)
			} else {
				s.setJobStateLocked(job, stateQueued)
				relaunches = append(relaunches, relaunch{job: job, in: jobInput{ref: ref, reads: reads}})
			}
		}
		if job.Finished.IsZero() && job.State.terminal() {
			job.Finished = time.Now()
		}
		if job.State.terminal() {
			// The stream a job left is served from its spill, tailed by
			// whoever subscribes; a missing spill serves the terminal event
			// alone.
			data, _ := fileSpool(s.journal.abs(streamName(id)))
			job.stream = closedStream(job, data)
		}
		// Terminal jobs re-merge their journaled ingest accounting, so the
		// server-wide QC totals (stats + metrics) replay identically; the
		// report is clamped to the fixed reason enum first — the journal is
		// the one input an operator could have hand-edited.
		if rep := job.QCReport; rep != nil && job.State.terminal() {
			sanitizeQCReport(rep)
			s.qcTotals.Merge(*rep)
		}
		if job.IdemKey != "" {
			// Terminal jobs keep their reservation too: a post-restart retry
			// of a finished job must return it, not run it again.
			s.idemKeys[job.IdemKey] = id
		}
		s.jobs[id] = job
		compacted = append(compacted, snapshotRecord(job))
	}
	s.jobsReplayed = uint64(len(relaunches))
	s.mu.Unlock()

	if err := s.journal.compact(compacted); err != nil {
		return fmt.Errorf("server: compacting journal: %w", err)
	}
	for _, rl := range relaunches {
		s.log.Info("replaying journaled job", "job", rl.job.ID, "backend", rl.job.Backend)
		s.launch(rl.job, rl.in)
	}
	return nil
}

// sanitizeQCReport clamps a report read back from the journal to the fixed
// reason enum — the cardinality guard. The gate only ever writes enum
// reasons, so anything else means a hand-edited or corrupted journal; those
// counts are folded under "invalid" instead of minting new stats keys.
func sanitizeQCReport(rep *qc.Report) {
	if rep == nil || len(rep.Rejected) == 0 {
		return
	}
	invalid := 0
	for reason, n := range rep.Rejected {
		if !qc.ValidReason(reason) {
			invalid += n
			delete(rep.Rejected, reason)
		}
	}
	if invalid > 0 {
		rep.Rejected["invalid"] += invalid
	}
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
