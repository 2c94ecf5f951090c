package fpga

import (
	"time"

	"bwaver/internal/core"
	"bwaver/internal/dna"
)

// MemSession schedules a multi-batch seed-and-extend job as a single
// two-pass program instead of paying the full two-pass cost per batch.
//
// A one-shot mem run reconfigures the fabric between its seeding pass and
// its extension pass, so a job streamed as B batches charges B
// reconfigurations. The session charges exactly one: the first batch runs
// the classic schedule (device seeding → reconfigure → device extension),
// and from then on the fabric stays programmed as the alignment array while
// the host — whose succinct index answers the same rank queries — takes
// over seeding. That host seeding is double-buffered against the device:
// while the array extends batch N, the host seeds batch N+1, so each later
// batch's profile credits min(seed time, previous batch's extension time)
// as Overlap. The credit is shifted by one batch — batch N+1 carries it,
// because that is the batch whose seeding was hidden.
//
// Everything else about a farm run survives the re-scheduling: shards still
// execute under execShard's retry/redistribution, fault stages fire
// per-pass as before, batch checksums are verified, and sampled host
// cross-checks still run. A MemSession is not safe for concurrent use;
// serve one stream of batches per session.
type MemSession struct {
	f       *Farm
	memOpts core.MemOptions
	opts    MapRunOptions

	batches    int
	reconfigs  int
	prevExtend time.Duration
}

// NewMemSession opens a batched two-pass session on the farm. The options
// apply to every batch; IndexResident is forced from the second batch on
// (the first batch's transfer leaves the structure in BRAM).
func (f *Farm) NewMemSession(memOpts core.MemOptions, opts MapRunOptions) *MemSession {
	return &MemSession{f: f, memOpts: memOpts, opts: opts}
}

// Map runs one batch under the session's schedule and returns its result.
// Results are bit-identical to Farm.MapReadsMemOpts — only the modeled
// profile (reconfiguration charge, overlap credit) differs.
func (s *MemSession) Map(reads []dna.Seq) (*MemRunResult, error) {
	opts := s.opts
	if s.batches > 0 {
		opts.IndexResident = true
	}
	run, err := runFarm(s.f, memWork{opts: s.memOpts, reconfigured: s.batches > 0}, reads, opts)
	if err != nil {
		return nil, err
	}
	if s.batches == 0 {
		s.reconfigs++
	} else if credit := min(run.SeedTime, s.prevExtend); credit > 0 {
		// Host seeding of this batch ran while the device extended the
		// previous one; Profile.Total subtracts the hidden time.
		run.Profile.Overlap += credit
	}
	s.prevExtend = run.ExtendTime
	s.batches++
	return run, nil
}

// Batches returns how many batches the session has mapped.
func (s *MemSession) Batches() int { return s.batches }

// Reconfigs returns how many fabric reconfigurations the session has
// charged — one for any number of batches, the point of the schedule.
func (s *MemSession) Reconfigs() int { return s.reconfigs }
