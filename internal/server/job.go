package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/fpga"
	"bwaver/internal/obs"
	"bwaver/internal/qc"
	"bwaver/internal/rrr"
	"bwaver/internal/runner"
)

// A served job's lifecycle. Admission (admission.go) mints a job; launch
// gives it a context, a trace and a goroutine that runs its stages in order —
// queue.wait, parse, build, map — each under a child span of the job's root
// (stage); and endJob is the one way any job ends, whether its run finished,
// a client canceled it before launch, its upload failed or stalled, or its
// acceptance could not be journaled. What a job comes to is one type,
// Outcome, embedded in the Job, in the journal's records and in the job JSON.

// JobState tracks a pipeline run.
type JobState string

// Job lifecycle states. Uploading jobs were created through the chunked
// protocol (POST /api/jobs) and are still receiving payload chunks; they
// occupy an admission queue slot but have not launched.
const (
	StateUploading JobState = "uploading"
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCanceled  JobState = "canceled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// errJobCanceled is the cancellation cause recorded when a user cancels a
// job over the API, distinguishing it from a timeout.
var errJobCanceled = errors.New("canceled by user")

// Job.Mode values. The empty mode keeps the historical dispatch: exact
// matching, or the mismatch-budget search when one is set.
const (
	// ModeMem maps reads with the seed-and-extend pipeline (SMEM seeding,
	// collinear chaining, banded extension) and streams SAM records.
	ModeMem = "mem"
	// ModeMemPE is ModeMem over interleaved mate pairs (R1, R2, R1, R2, ...)
	// with mate rescue and proper-pair calls.
	ModeMemPE = "mem-pe"
)

// memMode reports whether the job runs the seed-and-extend pipeline.
func (j *Job) memMode() bool { return j.Mode == ModeMem || j.Mode == ModeMemPE }

// Outcome is what a job comes to. Its run fills it in, the job's terminal
// journal record carries it, and the job JSON shows it: Job, journalRecord and
// jobJSON embed it, so what is kept, replayed and served is the same set of
// fields under the same keys.
type Outcome struct {
	Error     string `json:"error,omitempty"`
	RefName   string `json:"ref_name"`
	RefLength int    `json:"ref_length"`
	// Reads counts the reads taken from the upload so far: it grows batch by
	// batch while the job runs and is the job's read count once it is done.
	Reads  int `json:"reads"`
	Mapped int `json:"mapped"`
	// CacheHit reports whether the index came from the cache instead of
	// being built for this job.
	CacheHit bool `json:"cache_hit"`
	// FallbackUsed reports that the FPGA backend failed and the job was
	// transparently rerun on the CPU baseline; FallbackReason is the device
	// error that triggered it.
	FallbackUsed   bool   `json:"fallback"`
	FallbackReason string `json:"fallback_reason,omitempty"`
	// The stage figures, in milliseconds: parse is the parse stage's wall time
	// plus the runner's later pull waits, build the build stage's wall time,
	// map the runner's map time (modeled device time plus CPU).
	ParseMs float64 `json:"parse_ms"`
	BuildMs float64 `json:"build_ms"`
	MapMs   float64 `json:"map_ms"`
	// QCReport is the ingest accounting of the job's QC policy, taken when
	// the run ends; replay restores identical reject counts from it.
	QCReport *qc.Report `json:"qc_report,omitempty"`
	// Done counts the reads mapped so far: it grows while the job runs and
	// keeps where the run stopped.
	Done int `json:"done"`
	// PeakResultBuf is the largest number of result bytes the job staged in
	// memory for one batch — the figure that proves streamed jobs hold
	// O(batch), not O(job), result memory.
	PeakResultBuf int `json:"peak_result_buffer_bytes"`
}

// Job is one mapping request moving through the pipeline.
type Job struct {
	ID    int
	State JobState
	JobParams
	Outcome
	Created  time.Time
	Finished time.Time

	// IdemKey is the client's Idempotency-Key, journaled with the job so a
	// retried submission maps back here instead of double-running.
	IdemKey string
	// RequestID is the X-Request-Id of the submission that created the job,
	// journaled with it so a failed-over job is traceable across processes.
	RequestID string
	// timeout is the job's effective deadline budget, resolved at admission
	// from the server's -job-timeout and any gateway-propagated
	// X-Bwaver-Timeout-Ms remaining budget; 0 = unbounded.
	timeout time.Duration

	// results is the TSV (SAM for mode=mem) of a done job, written batch by
	// batch by the job's emitter.
	results *spool
	// stream is the job's NDJSON result log served by GET
	// /api/jobs/{id}/stream; created on first use, or by recover for a
	// replayed terminal job.
	stream *resultStream
	// upload tracks chunked-ingest progress; nil for buffered submissions.
	upload *uploadState

	cancel context.CancelCauseFunc // nil until the job is launched
	// trace is the job's span tree, created at launch and served live at
	// /api/jobs/{id}/trace; span is its root, closed by endJob.
	trace *obs.Trace
	span  *obs.Span
}

// jobJSON is the wire form of a job for the JSON API.
type jobJSON struct {
	ID    int    `json:"id"`
	State string `json:"state"`
	JobParams
	Outcome
	RequestID string `json:"request_id,omitempty"`
	// Upload resume anchors, present while the job is uploading.
	ReferenceOffset *int64 `json:"reference_offset,omitempty"`
	ReadsOffset     *int64 `json:"reads_offset,omitempty"`
}

// shown is the job as its pages and JSON show it: its reference name is the
// parsed one once the job has one, else the placeholder its state implies —
// "(uploading)" while its payload arrives, "(parsing)" until its build names
// the reference. No placeholder is stored, so a replayed job shows what the
// live one did. s.mu must be held.
func (j *Job) shown() Job {
	v := *j
	if v.RefName == "" && !v.State.terminal() {
		v.RefName = "(parsing)"
		if v.State == StateUploading {
			v.RefName = "(uploading)"
		}
	}
	return v
}

// toJSON renders the job's wire form; s.mu must be held.
func (j *Job) toJSON() jobJSON {
	out := jobJSON{
		ID: j.ID, State: string(j.State), JobParams: j.JobParams, Outcome: j.shown().Outcome,
		RequestID: j.RequestID,
	}
	if j.State == StateUploading && j.upload != nil {
		ref, reads := j.upload.ref.size(), j.upload.reads.size()
		out.ReferenceOffset, out.ReadsOffset = &ref, &reads
	}
	return out
}

// ms is a duration in the milliseconds the outcome keeps.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// duration undoes ms, exactly for any duration under about 26 days: the two
// roundings lose less than half a nanosecond.
func duration(ms float64) time.Duration {
	return time.Duration(math.Round(ms * float64(time.Millisecond)))
}

// jobInput is what a launched job works on: the two parts of its upload,
// parsed on the job goroutine.
type jobInput struct {
	ref, reads *spool // nil = part absent (a multipart body still being read)
	// refDigest is the hex SHA-256 of the raw reference when the ingest route
	// already took it (the multipart handler hashes on the wire); empty means
	// the parse stage hashes the payload itself.
	refDigest string
}

// remove deletes the parts of an input no job will run.
func (in jobInput) remove() {
	in.ref.remove()
	in.reads.remove()
}

// launch runs the job asynchronously: its stages in order, then its end.
func (s *Server) launch(job *Job, in jobInput) {
	ctx, cancel := context.WithCancelCause(context.Background())
	tr := obs.NewTrace(fmt.Sprintf("job-%d", job.ID))
	// Every stage's span nests under the job root.
	ctx, root := obs.StartSpan(obs.WithTrace(ctx, tr), "job")
	root.SetAttr("job_id", job.ID)
	root.SetAttr("backend", job.Backend)
	if job.RequestID != "" {
		root.SetAttr("request_id", job.RequestID)
	}
	s.mu.Lock()
	if job.State.terminal() {
		// Canceled between admission and launch.
		s.mu.Unlock()
		cancel(nil)
		in.remove()
		return
	}
	job.cancel = cancel
	job.trace = tr
	job.span = root
	s.mu.Unlock()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cancel(nil)
		runCtx := ctx
		// The job's own budget (which a gateway may have shrunk below the
		// server-wide -job-timeout) wins over the config; replayed jobs carry
		// no budget and fall back to the config.
		if t := s.jobTimeout(job); t > 0 {
			var cancelTimeout context.CancelFunc
			runCtx, cancelTimeout = context.WithTimeout(ctx, t)
			defer cancelTimeout()
		}
		r := &jobRun{s: s, job: job, in: in}
		// The pipeline slot is given back once the job has ended.
		defer r.releaseSlot()
		state, msg := s.runEnd(runCtx, job, r.run(runCtx))
		s.endJob(job, endRun, state, msg)
	}()
}

// jobRun is one run of a job: what its stages hand on to each other.
type jobRun struct {
	s   *Server
	job *Job
	in  jobInput

	slot bool // a pipeline slot is held
	// parseTime is the parse stage's wall time plus the pull waits since,
	// kept exact here and shown as ParseMs. Guarded by s.mu.
	parseTime time.Duration
	// What parse finds: the index's cache key, and the reference when it had
	// to be parsed to name the key; the reads, their first batch pulled.
	key     string
	ref     dna.Seq
	contigs *core.ContigSet
	rc      io.ReadCloser
	src     *qc.Source
	reads   *runner.Reads
	entry   *cacheEntry // what build finds
}

// stage runs one stage of a job's run under a child span of the job's root,
// named for the stage and ended on every return; the stage reaches its span
// through obs.SpanFrom. It returns the stage's wall time.
func stage(ctx context.Context, name string, run func(context.Context) error) (time.Duration, error) {
	ctx, span := obs.StartSpan(ctx, name)
	defer span.End()
	start := time.Now()
	err := run(ctx)
	return time.Since(start), err
}

// run runs the job's stages in order, stopping at the first that fails or
// when the job's context ends between two of them.
func (r *jobRun) run(ctx context.Context) error {
	defer r.close()
	job := r.job
	stages := []struct {
		name string
		run  func(context.Context) error
		// took keeps the stage's wall time in the outcome when it succeeds,
		// under s.mu; nil when the stage keeps no figure or sets its own.
		took func(time.Duration)
	}{
		{"queue.wait", r.wait, nil},
		{"parse", r.parse, func(d time.Duration) { r.parseTime = d; job.ParseMs = ms(d) }},
		{"build", r.build, func(d time.Duration) { job.BuildMs = ms(d) }},
		{"map", r.mapReads, nil}, // mapJob sets the runner's map time
	}
	for i, st := range stages {
		if err := ctx.Err(); err != nil && i > 0 {
			return err
		}
		took, err := stage(ctx, st.name, st.run)
		if err != nil {
			return err
		}
		if st.took != nil {
			r.s.mu.Lock()
			st.took(took)
			r.s.mu.Unlock()
		}
	}
	return nil
}

// wait takes a pipeline slot — abortable by cancellation or timeout — and
// marks the job running. Index builds are memory-hungry, so jobs past the
// slot count wait here in the queued state.
func (r *jobRun) wait(ctx context.Context) error {
	select {
	case r.s.sem <- struct{}{}:
		r.slot = true
	case <-ctx.Done():
		return ctx.Err()
	}
	s, job := r.s, r.job
	s.mu.Lock()
	s.setJobStateLocked(job, StateRunning)
	s.mu.Unlock()
	s.journal.appendBestEffort(journalRecord{Type: recRunning, Job: job.ID})
	if hook := s.testHookBeforeRun; hook != nil {
		hook(job, ctx)
	}
	return nil
}

// releaseSlot gives the pipeline slot back, if wait took one.
func (r *jobRun) releaseSlot() {
	if r.slot {
		<-r.s.sem
	}
}

// parse finds the index's cache key (parsing the reference only when the
// digest names no key this server knows) and opens the reads, pulling their
// first batch: a reads upload that is empty or does not decode fails the job
// before any index is built.
func (r *jobRun) parse(ctx context.Context) error {
	s, job := r.s, r.job
	var err error
	if r.key, r.ref, r.contigs, err = s.referenceKey(ctx, job, r.in); err != nil {
		return err
	}
	if r.rc, err = r.in.reads.open(); err != nil {
		return err
	}
	if hook := s.testHookOpenReads; hook != nil {
		r.rc = hook(r.rc)
	}
	batch := s.cfg.StreamBatch
	if job.Mode == ModeMemPE {
		batch = runner.PairAligned(batch)
	}
	if r.src, err = qc.NewSource(r.rc, job.policy(), batch); err != nil {
		return fmt.Errorf("reads: %w", err)
	}
	// A pull's wait is parse time, which the runner leaves out of map time.
	r.reads = runner.NewReads(r.src, func(total int, wait time.Duration) {
		s.mu.Lock()
		job.Reads = total
		r.parseTime += wait
		job.ParseMs = ms(r.parseTime)
		s.mu.Unlock()
	})
	err = r.reads.First()
	if err == io.EOF {
		return noReadsError(job.policy(), r.src.Report())
	}
	if err != nil {
		return fmt.Errorf("reads: %w", err)
	}
	return nil
}

// build is BWT/SA computation and succinct encoding — through the
// content-addressed cache, so a repeat reference skips construction and
// concurrent jobs for one reference build once. The build threads the job's
// context: cancellation aborts at the next phase boundary instead of
// finishing a doomed construction while holding a slot, and the stage's span
// on the context collects the per-phase spans.
func (r *jobRun) build(ctx context.Context) error {
	s, job := r.s, r.job
	entry, hit, err := s.cache.getOrBuild(ctx, r.key, func(context.Context) (*core.Index, error) {
		if hook := s.testHookDuringBuild; hook != nil {
			hook(job, ctx)
		}
		if r.ref == nil {
			// The alias named the key but neither the cache nor the spill
			// directory holds the index any more: parse after all.
			var err error
			if r.ref, r.contigs, err = s.loadReference(ctx, job, r.in.ref); err != nil {
				return nil, err
			}
		}
		ix, err := core.BuildIndexCtx(ctx, r.ref, s.indexConfig(job.B, job.SF))
		if err != nil {
			return nil, err
		}
		if err := ix.SetContigs(r.contigs); err != nil {
			return nil, err
		}
		return ix, nil
	})
	obs.SpanFrom(ctx).SetAttr("cache_hit", hit)
	if err != nil {
		return err
	}
	if !hit {
		// Fresh build: per-phase durations from the index's own stats.
		bs := entry.ix.Stats()
		s.mBuildStage.With("sa").Observe(bs.SATime.Seconds())
		s.mBuildStage.With("bwt").Observe(bs.BWTTime.Seconds())
		s.mBuildStage.With("encode").Observe(bs.EncodeTime.Seconds())
	}
	r.entry = entry
	s.mu.Lock()
	job.CacheHit = hit
	// The index knows what a parse would have told: an alias hit never looked
	// at the reference.
	job.RefName, job.RefLength = "", entry.ix.RefLength()
	if cs := entry.ix.Contigs(); cs != nil && cs.Count() > 0 {
		job.RefName = cs.Contig(0).Name
	}
	s.mu.Unlock()
	return nil
}

// mapReads maps every read of the job; a job that had none to map fails.
func (r *jobRun) mapReads(ctx context.Context) error {
	n, err := r.s.mapJob(ctx, r.job, r.entry, r.reads)
	if err == nil && n == 0 {
		err = noReadsError(r.job.policy(), r.src.Report())
	}
	return err
}

// close releases what parse opened and takes the job's ingest accounting.
func (r *jobRun) close() {
	if r.src != nil {
		r.s.noteQCReport(r.job, r.src)
		r.src.Close()
	}
	if r.rc != nil {
		r.rc.Close()
	}
}

// runEnd is the terminal state and error a run's result comes to.
func (s *Server) runEnd(ctx context.Context, job *Job, err error) (JobState, string) {
	cause := context.Cause(ctx)
	switch {
	case err == nil:
		return StateDone, ""
	case !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded):
		return StateFailed, err.Error()
	case errors.Is(cause, errJobCanceled):
		return StateCanceled, errJobCanceled.Error()
	case errors.Is(cause, context.DeadlineExceeded) || errors.Is(err, context.DeadlineExceeded):
		return StateFailed, fmt.Sprintf("job exceeded the %v timeout", s.jobTimeout(job))
	default:
		return StateFailed, err.Error()
	}
}

// ender is who ends a job.
type ender int

const (
	// endRun is the end of a launched job's run, the only end a launched job
	// takes: a cancel reaches it through its context.
	endRun ender = iota
	// endBeforeLaunch is a cancel, or a failed or stalled upload, of a job
	// that has not launched.
	endBeforeLaunch
	// endUnaccepted is a failed acceptance: the job's accepted record never
	// reached the journal, so it gets no terminal record either, and its
	// idempotency key is given back, so a retry runs.
	endUnaccepted
)

// endJob is the one way a job ends. It sets the job's state, error and
// Finished once, journals the terminal record, closes the result stream, ends
// the trace's root span if there is one, counts the end and logs it. A job
// ended before its run has come to nothing but its error, and the upload it
// was receiving is discarded. endJob changes nothing and reports false when
// the job has ended already, or when by is not endRun and the job has
// launched.
func (s *Server) endJob(job *Job, by ender, state JobState, msg string) bool {
	s.mu.Lock()
	if job.State.terminal() || (by != endRun && job.cancel != nil) {
		s.mu.Unlock()
		return false
	}
	wasUploading := job.State == StateUploading
	s.setJobStateLocked(job, state)
	job.Error, job.Finished = msg, time.Now()
	if by != endRun {
		job.Outcome = Outcome{Error: msg}
	}
	if by == endUnaccepted {
		s.releaseIdemKeyLocked(job)
	}
	if state == StateDone {
		parse, build, mapped := duration(job.ParseMs), duration(job.BuildMs), duration(job.MapMs)
		s.completedJobs++
		s.totalParse += parse
		s.totalBuild += build
		s.totalMap += mapped
		s.mJobStage.With("parse").Observe(parse.Seconds())
		s.mJobStage.With("build").Observe(build.Seconds())
		s.mJobStage.With("map").Observe(mapped.Seconds())
	}
	out, finished := job.Outcome, job.Finished
	rec := journalRecord{Type: string(state), Job: job.ID, Outcome: &out, Finished: &finished}
	// The stream to seal, created on the spot if no subscriber ever asked.
	st := s.ensureStreamLocked(job)
	kind, event := terminalEventLocked(job)
	up, span, elapsed := job.upload, job.span, job.Finished.Sub(job.Created)
	s.mu.Unlock()

	if by != endUnaccepted {
		// A done job's results were fsync'd by its emitter before this.
		// Best-effort: the job already ended; a lost record only means a
		// restart re-runs it.
		s.journal.appendBestEffort(rec)
	}
	if by == endRun {
		s.journal.removeFiles(payloadNames(job.ID))
	} else if wasUploading && up != nil {
		up.discard()
	}
	// Seal the result stream after the terminal state is durable, so every
	// subscriber gets the closing done/failed/canceled event.
	st.close(kind, event)
	span.SetAttr("state", string(state))
	span.End()
	s.mJobsTotal.With(string(state)).Inc()
	attrs := append(obs.JobAttrs(job.ID, job.Backend),
		"state", string(state), "elapsed_ms", ms(elapsed))
	if job.RequestID != "" {
		attrs = append(attrs, "request_id", job.RequestID)
	}
	if msg != "" {
		attrs = append(attrs, "err", msg)
	}
	s.log.Info("job finished", attrs...)
	return true
}

// setJobProgress updates Done monotonically (parallel mappers may report
// out of order).
func (s *Server) setJobProgress(job *Job, done int) {
	s.mu.Lock()
	if done > job.Done {
		job.Done = done
	}
	s.mu.Unlock()
}

// servedSampleRate is the suffix-array sampling rate of every index the
// server builds; core's zero value, the full array, is what a process that
// builds one index keeps. A server holds its indexes for job after job, long
// past their builds, and with the full array (4 bytes per base, two thirds
// of an E. coli index) they were most of its heap; a one-index process peaks
// during the build, when the full array is alive whatever it keeps. 8 is the
// smallest rate of the table in EXPERIMENTS.md "Served indexes keep a
// sampled suffix array": larger ones save little more and lengthen every
// locate.
const servedSampleRate = 8

// indexConfig is the build configuration of a job's index: the job's RRR
// parameters, the server's prefix-table order and a sampled suffix array.
func (s *Server) indexConfig(b, sf int) core.IndexConfig {
	return core.IndexConfig{
		RRR:        rrr.Params{BlockSize: b, SuperblockFactor: sf},
		Locate:     core.LocateSampled,
		SampleRate: servedSampleRate,
		FtabK:      s.cfg.FtabK,
	}
}

// noteQCReport takes a job's ingest accounting when its run ends. The report
// is final only when the stream has ended, so it is taken once, however the
// job ends: a failed or cancelled job accounts for the batches it was handed,
// and the report still balances. A job without a policy reports nothing.
func (s *Server) noteQCReport(job *Job, src *qc.Source) {
	if !job.policy().Active() {
		return
	}
	rep := src.Report()
	s.mu.Lock()
	job.QCReport = &rep
	s.qcTotals.Merge(rep)
	s.mu.Unlock()
}

// noReadsError is how a job with nothing to map fails: no record in the
// upload, or none that the job's policy let through.
func noReadsError(pol qc.Policy, rep qc.Report) error {
	if !pol.Active() {
		return errors.New("reads: no records")
	}
	return fmt.Errorf("reads: no records survived QC (%d attempted, %d malformed, %d rejected)",
		rep.Attempted, rep.Malformed, rep.RejectedTotal())
}

// mapJob is the map stage: it maps every batch of in with the job's workload
// through the runner, emitting as it goes, and seals the job's results — or
// discards them, when the run failed or there was no read to map. It returns
// how many reads it mapped.
func (s *Server) mapJob(ctx context.Context, job *Job, entry *cacheEntry, in *runner.Reads) (int, error) {
	span := obs.SpanFrom(ctx)
	em, err := s.newEmitter(job, entry.ix)
	if err != nil {
		return 0, err
	}
	opts := runner.Options{
		Workers:  -1,
		Progress: func(done int) { s.setJobProgress(job, done) },
		Emit:     em.emit,
		Fallback: func(err error) bool {
			if !s.shouldFallback(ctx, err) {
				return false
			}
			s.noteFallback(job, err)
			span.SetAttr("fallback", err.Error())
			return true
		},
	}
	var res runner.Result
	if job.Backend == "fpga" {
		// A farm that ran before reports the index already resident.
		opts.Farm, opts.Resident, err = entry.farmFor(s.devices, s.farmOptions())
	}
	switch {
	case err != nil: // no farm to map on
	case job.memMode():
		res, err = runner.Run(ctx, in, runner.Mem(entry.ix, core.MemOptions{Paired: job.Mode == ModeMemPE}, s.countMem), em.rows, opts)
	case job.Mismatches > 0:
		res, err = runner.Run(ctx, in, runner.Approx(entry.ix, job.Mismatches, true), em.rows, opts)
	default:
		res, err = runner.Run(ctx, in, runner.Exact(entry.ix, true), em.rows, opts)
	}
	addModeledEvents(span, res.Device.Events)
	span.SetAttr("reads", res.Reads)
	if err == nil && res.Reads > 0 {
		err = em.sync()
	}
	if err != nil || res.Reads == 0 {
		em.remove()
		return 0, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	job.MapMs = ms(res.MapTime())
	job.Mapped = em.rows.Mapped()
	return res.Reads, nil
}

// countMem folds one mem batch's pipeline counters into the server's.
func (s *Server) countMem(stats core.MemStats, reconfigured bool) {
	s.mu.Lock()
	s.memStats.Merge(stats)
	if reconfigured {
		s.memReconfigs++
	}
	s.mu.Unlock()
}

// loadReference parses a job's reference payload under the parse or build
// stage. What the parse replaced — every N or IUPAC code becomes A — is said
// once, in the log and on the stage's span.
func (s *Server) loadReference(ctx context.Context, job *Job, ref *spool) (dna.Seq, *core.ContigSet, error) {
	if hook := s.testHookParseReference; hook != nil {
		hook(job)
	}
	r, err := ref.open()
	if err != nil {
		return nil, nil, err
	}
	defer r.Close()
	seq, contigs, replaced, err := core.ReadReference(r)
	if err != nil {
		return nil, nil, fmt.Errorf("reference: %w", err)
	}
	if replaced > 0 {
		s.log.Warn("reference holds ambiguous bases; each was replaced with A",
			append(obs.JobAttrs(job.ID, job.Backend), "replaced_bases", replaced)...)
		obs.SpanFrom(ctx).SetAttr("replaced_bases", replaced)
	}
	return seq, contigs, nil
}

// referenceKey finds the cache key of a raw reference, without parsing it
// when this server has seen the same bytes under the same parameters: digest
// (taken on the wire by handleSubmit, here for the routes that bring none) →
// alias → key, and ref stays nil for the build stage to parse only if the
// index is in neither cache tier. On an alias miss the reference is parsed as
// it always was, the job learns its name and length, and the alias is
// recorded — after the parse succeeded, so a corrupt upload leaves none.
func (s *Server) referenceKey(ctx context.Context, job *Job, in jobInput) (key string, ref dna.Seq, contigs *core.ContigSet, err error) {
	digest := in.refDigest
	if digest == "" {
		if digest, err = in.ref.digest(); err != nil {
			return "", nil, nil, err
		}
	}
	alias := RingKey(digest, job.B, job.SF, s.cfg.FtabK)
	if key = s.cache.aliasKey(alias); key != "" {
		return key, nil, nil, nil
	}
	if ref, contigs, err = s.loadReference(ctx, job, in.ref); err != nil {
		return "", nil, nil, err
	}
	s.mu.Lock()
	job.RefName, job.RefLength = contigs.Contig(0).Name, len(ref)
	s.mu.Unlock()
	key = core.CacheKey(ref, contigs, s.indexConfig(job.B, job.SF))
	s.cache.setAlias(alias, key)
	return key, ref, contigs, nil
}

// farmOptions derives the resilience tuning every cached farm shares.
func (s *Server) farmOptions() fpga.FarmOptions {
	opts := fpga.FarmOptions{
		BreakerThreshold: s.cfg.BreakerThreshold,
		BreakerCooldown:  s.cfg.BreakerCooldown,
		VerifyStride:     s.cfg.VerifyStride,
		Recorder:         s.rec,
		Metrics:          s.registry,
	}
	if s.cfg.MaxRetries > 0 {
		opts.MaxAttempts = s.cfg.MaxRetries + 1
	} else if s.cfg.MaxRetries < 0 {
		opts.MaxAttempts = 1
	}
	return opts
}

// shouldFallback decides whether an FPGA-path error warrants the transparent
// CPU rerun: the policy allows it, the error is a device failure (not bad
// input), and the job itself was not canceled or timed out.
func (s *Server) shouldFallback(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	return s.cfg.Fallback == "cpu" && fpga.IsDeviceFailure(err)
}

// noteFallback records the CPU rerun on the job and in the global counters.
func (s *Server) noteFallback(job *Job, cause error) {
	s.rec.RecordFallback()
	s.mu.Lock()
	job.FallbackUsed = true
	job.FallbackReason = cause.Error()
	s.mu.Unlock()
}
