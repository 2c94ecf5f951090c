package fpga

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/dna"
	"bwaver/internal/obs"
	"bwaver/internal/resilience"
)

// Farm models a multi-card deployment, the configuration of the paper's
// related work (Fernandez et al. on four Virtex-6 FPGAs, Arram et al. on
// eight Stratix V): the same index is broadcast to every card and the read
// batch is striped across them. The paper argues its single-card design
// "can be easily replicated to obtain even better performances"; Farm
// quantifies that claim under a shared-PCIe model — transfers serialise on
// the host bus while kernels run in parallel.
//
// The farm is also the resilience layer over the fault-injectable devices:
// each shard is retried on its card with exponential backoff and bounded
// attempts, every result batch is checksum-verified (and optionally
// cross-checked against the CPU path on a sampled subset), and a card whose
// circuit breaker opens is taken out of rotation with its shard
// redistributed to the healthy cards. Only when every card is broken does a
// run fail — with errNoHealthyDevices, the signal the server's CPU fallback
// keys on.
type Farm struct {
	kernels []*Kernel
	devices []*Device
	opts    FarmOptions
	rec     *StatsRecorder

	// Metric instruments, nil unless FarmOptions.Metrics was set.
	stageSeconds *obs.HistogramVec
	backoffTotal *obs.CounterVec

	// mu guards the jitter RNG; concurrent jobs may share one farm.
	mu  sync.Mutex
	rng uint64
}

// FarmOptions tune the resilience layer; the zero value takes the listed
// defaults, reproducing fault-free behaviour exactly when no fault plan is
// attached to the devices.
type FarmOptions struct {
	// MaxAttempts bounds the tries of one shard on one device; default
	// defaultMaxAttempts.
	MaxAttempts int
	// BreakerThreshold consecutive failures open a device's breaker;
	// default DefaultBreakerThreshold.
	BreakerThreshold int
	// BreakerCooldown is the open-breaker probe delay; default
	// DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// VerifyStride cross-checks every Nth result of a shard against the
	// CPU path (0 disables) — the host-side defense against corruption
	// that slips past the batch checksum.
	VerifyStride int
	// Recorder receives the resilience counters; nil creates a private one.
	Recorder *StatsRecorder
	// Metrics, when non-nil, receives per-stage modeled duration histograms
	// (bwaver_fpga_stage_seconds) and the accrued retry-backoff counter
	// (bwaver_fpga_retry_backoff_seconds_total) for every successful shard
	// run. Families are get-or-create, so farms built per cache entry share
	// one registry's series.
	Metrics *obs.Registry
}

// NewFarm programs the index onto every device with default resilience
// options.
func NewFarm(devices []*Device, ix *core.Index) (*Farm, error) {
	return NewFarmOpts(devices, ix, FarmOptions{})
}

// NewFarmOpts programs the index onto every device and configures the
// resilience layer. Device breakers keep their accumulated state: a new farm
// over already-running cards cannot mask an open breaker.
func NewFarmOpts(devices []*Device, ix *core.Index, opts FarmOptions) (*Farm, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("fpga: farm needs at least one device")
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = defaultMaxAttempts
	}
	f := &Farm{
		kernels: make([]*Kernel, len(devices)),
		devices: devices,
		opts:    opts,
		rec:     opts.Recorder,
		rng:     jitterSeed,
	}
	if f.rec == nil {
		f.rec = NewStatsRecorder()
	}
	if opts.Metrics != nil {
		f.stageSeconds = opts.Metrics.Histogram("bwaver_fpga_stage_seconds",
			"Modeled duration of FPGA run stages in seconds, one observation per successful shard run.",
			nil, "stage")
		f.backoffTotal = opts.Metrics.Counter("bwaver_fpga_retry_backoff_seconds_total",
			"Modeled host-side retry backoff accrued by the resilience layer, in seconds.")
	}
	for i, d := range devices {
		k, err := d.Program(ix)
		if err != nil {
			return nil, fmt.Errorf("fpga: device %d: %w", i, err)
		}
		f.kernels[i] = k
		d.breaker.Configure(opts.BreakerThreshold, opts.BreakerCooldown)
	}
	return f, nil
}

// healthyDevices returns the indexes of cards whose breaker admits work.
func (f *Farm) healthyDevices() []int {
	out := make([]int, 0, len(f.devices))
	for i, d := range f.devices {
		if d.breaker.Allow() {
			out = append(out, i)
		}
	}
	return out
}

// jitter returns the backoff before retrying after the attempt-th failure
// (1-based): the nominal delay scaled by a deterministic draw in [1/2, 1].
// The simulator does not sleep: the farm charges it to the run's
// Profile.RetryBackoff, keeping the fault sequence reproducible.
func (f *Farm) jitter(attempt int) time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	nominal := resilience.Backoff{Base: retryBase, Max: retryMax}.Delay(attempt)
	return time.Duration(float64(nominal) * (0.5 + 0.5*rand01(&f.rng)))
}

// recordFailure folds one shard failure into the counters.
func (f *Farm) recordFailure(err error) {
	var fe *FaultError
	switch {
	case errors.As(err, &fe):
		f.rec.fault(fe.Stage.String())
	case errors.Is(err, errResultCorrupt):
		f.rec.checksum()
	case errors.Is(err, errCrossCheckFailed):
		f.rec.crosscheck()
	}
}

// shardWinner identifies where a shard finally succeeded: the device that
// ran it and the 1-based attempt number on that device. Failed attempts
// leave no event timeline (the run aborts before a profile exists), so the
// winner's identity is what makes a recovered run's trace readable.
type shardWinner struct {
	Device  int
	Attempt int
}

// execShard runs fn against the primary device with retry/backoff, then
// against each remaining candidate in turn (redistribution) until one
// succeeds or all are exhausted. It returns the accrued modeled backoff and
// the identity of the successful attempt.
func execShard[T any](f *Farm, ctx context.Context, primary int, candidates []int, fn func(*Kernel) (T, error)) (out T, backoff time.Duration, winner shardWinner, err error) {
	var zero T
	order := make([]int, 0, len(candidates))
	order = append(order, primary)
	for _, c := range candidates {
		if c != primary {
			order = append(order, c)
		}
	}
	var lastErr error
	for oi, di := range order {
		dev := f.devices[di]
		if !dev.breaker.Allow() {
			continue
		}
		if oi > 0 {
			f.rec.redistributed()
		}
		for attempt := 1; ; attempt++ {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return zero, backoff, shardWinner{}, err
				}
			}
			res, err := fn(f.kernels[di])
			if err == nil {
				dev.breaker.Success()
				return res, backoff, shardWinner{Device: di, Attempt: attempt}, nil
			}
			if !isRetryableFault(err) {
				return zero, backoff, shardWinner{}, err
			}
			lastErr = err
			f.recordFailure(err)
			dev.breaker.Failure()
			if attempt >= f.opts.MaxAttempts || !dev.breaker.Allow() {
				break
			}
			f.rec.retry()
			backoff += f.jitter(attempt)
		}
	}
	f.rec.exhausted()
	if lastErr == nil {
		return zero, backoff, shardWinner{}, errNoHealthyDevices
	}
	return zero, backoff, shardWinner{}, fmt.Errorf("%w (last error: %v)", errNoHealthyDevices, lastErr)
}

// observeRun folds one successful shard run's modeled stage durations and
// accrued backoff into the metrics registry, when one is attached.
func (f *Farm) observeRun(p Profile, backoff time.Duration) {
	if f.backoffTotal != nil && backoff > 0 {
		f.backoffTotal.With().Add(backoff.Seconds())
	}
	if f.stageSeconds == nil {
		return
	}
	observe := func(stage string, d time.Duration) {
		f.stageSeconds.With(stage).Observe(d.Seconds())
	}
	observe("setup", p.Setup)
	observe("query_transfer", p.QueryTransfer)
	observe("kernel", p.KernelTime)
	observe("result_transfer", p.ResultTransfer)
	// Conditional stages only when they happened: a resident index pays no
	// transfer, exact-only runs never reconfigure.
	if p.IndexTransfer > 0 {
		observe("index_transfer", p.IndexTransfer)
	}
	if p.Reconfig > 0 {
		observe("reconfig", p.Reconfig)
	}
	if backoff > 0 {
		observe("retry_backoff", backoff)
	}
}

// sortEvents orders a multi-shard event log deterministically: by shard,
// then by virtual-timeline start, then by name. Each shard's events keep
// their in-order command-queue sequence.
func sortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Shard != events[j].Shard {
			return events[i].Shard < events[j].Shard
		}
		if events[i].Start != events[j].Start {
			return events[i].Start < events[j].Start
		}
		return events[i].Name < events[j].Name
	})
}

// addShard folds one card's share of a farm batch into p under the one rule
// of a farm profile: transfers serialise on the shared host bus, so they add
// up, as does the retry backoff the shard accrued; the cards run in
// parallel, so every fabric figure — kernel time and cycles,
// reconfiguration, the overlap double buffering hides, the wave accounting —
// is the slowest card's. A one-card farm's profile is its kernel's.
func (p *Profile) addShard(s Profile, backoff time.Duration) {
	p.IndexTransfer += s.IndexTransfer
	p.QueryTransfer += s.QueryTransfer
	p.ResultTransfer += s.ResultTransfer
	p.RetryBackoff += backoff
	p.KernelTime = max(p.KernelTime, s.KernelTime)
	p.KernelCycles = max(p.KernelCycles, s.KernelCycles)
	p.Reconfig = max(p.Reconfig, s.Reconfig)
	p.Overlap = max(p.Overlap, s.Overlap)
	p.WaveCycles = max(p.WaveCycles, s.WaveCycles)
}

// runFarm is the one farm run: it stripes reads across the healthy cards —
// on pair boundaries when the workload pairs reads — and runs each shard
// under execShard's retry and redistribution, accepting a shard run only
// when its batch checksum verifies and, when configured, a sampled host
// cross-check agrees. The profile charges setup once and combines the
// shards' profiles by addShard.
func runFarm[R any](f *Farm, w Workload[R], reads []dna.Seq, opts MapRunOptions) (*Run[R], error) {
	wallStart := time.Now()
	healthy := f.healthyDevices()
	if len(healthy) == 0 {
		f.rec.exhausted()
		return nil, errNoHealthyDevices
	}
	n := len(healthy)
	boundary := func(si int) int {
		b := len(reads) * si / n
		if si < n && w.pairAligned() {
			b &^= 1
		}
		return b
	}
	out := &Run[R]{Results: make([]R, len(reads)), work: w}
	agg := &out.Profile
	agg.Setup = f.kernels[0].dev.cfg.SetupTime
	var events []Event
	for si, di := range healthy {
		lo, hi := boundary(si), boundary(si+1)
		if lo == hi {
			continue
		}
		shard := reads[lo:hi]
		runOpts := opts
		if opts.Progress != nil {
			// Lift the shard-local progress onto the whole batch.
			runOpts.Progress = func(done, _ int) { opts.Progress(lo+done, len(reads)) }
		}
		run, backoff, winner, err := execShard(f, opts.Context, di, healthy, func(k *Kernel) (*Run[R], error) {
			r, err := runKernel(k, w, shard, runOpts)
			if err != nil {
				return nil, err
			}
			if err := r.VerifyChecksum(); err != nil {
				return nil, err
			}
			if err := w.verify(k.ix, shard, r.Results, f.opts.VerifyStride); err != nil {
				return nil, fmt.Errorf("%w: %v", errCrossCheckFailed, err)
			}
			return r, nil
		})
		if err != nil {
			return nil, err
		}
		f.observeRun(run.Profile, backoff)
		// The aggregate event log keeps per-shard identity — each shard's
		// command queue tagged with the device and attempt that produced it —
		// instead of a synthesized single-queue timeline that would
		// misattribute recovered runs.
		events = append(events, tagEvents(run.Profile.Events, winner.Device, winner.Attempt, si)...)
		copy(out.Results[lo:], run.Results)
		out.SeedCycles = max(out.SeedCycles, run.SeedCycles)
		out.ExtendCycles = max(out.ExtendCycles, run.ExtendCycles)
		agg.addShard(run.Profile, backoff)
	}
	sortEvents(events)
	agg.Events = events
	agg.HostWallTime = time.Since(wallStart)
	out.Checksum = w.sum(out.Results)
	return out, nil
}
