package fpga

import (
	"bwaver/internal/core"
	"bwaver/internal/dna"
)

// Session is a run's stream of batches through a farm, the host loop of
// §III-C that "iteratively fetches query sequences from the host's memory"
// and sends them to the programmed card, for any workload. The session owns
// residency: its first batch charges the index transfer unless the session
// opened with the index already resident, and later batches find it in
// BRAM. A schedule that spans the batches — the mem workload's single
// reconfiguration and seeding overlap — lives in the workload value; a
// two-pass run reconfigures in every batch that leaves reads unaligned.
//
// Every batch is a farm run: shards execute under execShard's retry and
// redistribution, fault stages fire per pass, batch checksums are verified,
// and sampled host cross-checks run. A Session is not safe for concurrent
// use; serve one stream of batches per session.
type Session[R any] struct {
	f    *Farm
	w    Workload[R]
	opts MapRunOptions

	batches   int
	reconfigs int
}

// NewSession opens a session of w on f. The options apply to every batch;
// IndexResident holds from the second batch on whatever opts says.
func NewSession[R any](f *Farm, w Workload[R], opts MapRunOptions) *Session[R] {
	return &Session[R]{f: f, w: w, opts: opts}
}

// NewMemSession opens a session of the seed-and-extend workload on the farm.
func (f *Farm) NewMemSession(memOpts core.MemOptions, opts MapRunOptions) *Session[core.MemResult] {
	return NewSession(f, Mem(memOpts), opts)
}

// Map runs one batch under the session's schedule and returns its run.
func (s *Session[R]) Map(reads []dna.Seq) (*Run[R], error) {
	opts := s.opts
	if s.batches > 0 {
		opts.IndexResident = true
	}
	run, err := runFarm(s.f, s.w, reads, opts)
	if err != nil {
		return nil, err
	}
	s.w.mapped(s.f, run)
	if run.Profile.Reconfig > 0 {
		s.reconfigs++
	}
	s.batches++
	return run, nil
}

// Batches returns how many batches the session has mapped.
func (s *Session[R]) Batches() int { return s.batches }

// Reconfigs returns how many fabric reconfigurations the session has
// charged: one for any number of mem batches, the point of its schedule.
func (s *Session[R]) Reconfigs() int { return s.reconfigs }
