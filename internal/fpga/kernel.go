package fpga

import (
	"context"
	"fmt"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/dna"
)

// Kernel is a programmed device: the index is resident in simulated BRAM.
type Kernel struct {
	dev           *Device
	ix            *core.Index
	indexBytes    int
	ftabBytes     int
	useFtab       bool
	ftabDegraded  bool
	indexTransfer time.Duration
}

// Index returns the index the kernel was programmed with.
func (k *Kernel) Index() *core.Index { return k.ix }

// IndexBytes returns the BRAM bytes occupied by the resident structures
// (succinct BWT plus the prefix table when one is resident).
func (k *Kernel) IndexBytes() int { return k.indexBytes }

// FtabBytes returns the BRAM bytes the resident prefix table occupies,
// 0 when the kernel runs without one: the table's lower bounds, a k-mer's
// and its successor's side by side in one BRAM line, so a lookup is one
// access.
func (k *Kernel) FtabBytes() int { return k.ftabBytes }

// UsesFtab reports whether the kernel's pipelines consult a BRAM-resident
// prefix table, collapsing the first k backward-search iterations of both
// the forward and reverse-complement pipelines into one LUT access.
func (k *Kernel) UsesFtab() bool { return k.useFtab }

// FtabDegraded reports whether Program dropped the index's prefix table
// because structure + table exceeded the device's BRAM capacity.
func (k *Kernel) FtabDegraded() bool { return k.ftabDegraded }

// stepCycles returns the modeled cost of one backward-search step. The
// paper's design resolves the RRR class sum with a pipelined adder tree, so
// a pipeline retires one step per cycle; the SequentialRank ablation walks
// the (on average sf/2) class fields of the superblock serially on each of
// the wavelet levels instead.
func (k *Kernel) stepCycles() uint64 {
	if !k.dev.cfg.SequentialRank {
		return 1
	}
	sf := k.ix.Config().RRR.SuperblockFactor
	const waveletLevels = 2 // log2 of the DNA alphabet
	return uint64(waveletLevels * (sf/2 + 1))
}

// Event mirrors an OpenCL profiling event: the paper benchmarks with
// "OpenCL events that provide an easy to use API to profile the code that
// runs on the FPGA device". Timestamps are on the run's virtual timeline,
// measured from enqueue of the first command.
//
// Device, Attempt, and Shard identify where the command actually ran. A
// farm run that survives retries or shard redistribution would otherwise
// be unreadable: without identity, a recovered run's timeline cannot say
// which card finally did the work or how many attempts it took. Attempt is
// 1-based on the device that succeeded (a plain kernel run reports 1);
// Shard is the farm stripe index (0 for single-kernel runs).
type Event struct {
	Name      string
	Queued    time.Duration
	Submitted time.Duration
	Start     time.Duration
	End       time.Duration
	Device    int
	Attempt   int
	Shard     int
}

// Duration returns the event's execution span.
func (e Event) Duration() time.Duration { return e.End - e.Start }

// Profile decomposes a modeled run.
type Profile struct {
	// Setup is the fixed OpenCL runtime overhead.
	Setup time.Duration
	// IndexTransfer moves the succinct structure into BRAM.
	IndexTransfer time.Duration
	// QueryTransfer streams the 512-bit query records to the device.
	QueryTransfer time.Duration
	// KernelTime is the modeled execution time of the search pipelines.
	KernelTime time.Duration
	// ResultTransfer returns the row ranges to the host.
	ResultTransfer time.Duration
	// Reconfig is the fabric-reconfiguration cost of a two-pass run
	// (zero for exact-only runs).
	Reconfig time.Duration
	// RetryBackoff is the host-side wait accrued by the resilience layer's
	// exponential backoff between retried shard attempts (zero without
	// injected faults). Charged on the modeled timeline, not slept.
	RetryBackoff time.Duration
	// Overlap is the time hidden by double-buffered query streaming (each
	// pass's min(query transfer, kernel time) when Config.DoubleBuffer is
	// set); Total subtracts it.
	Overlap time.Duration
	// KernelCycles is the raw cycle count behind KernelTime.
	KernelCycles uint64
	// WaveCycles is the batch-homogeneity accounting: the cycle count of a
	// lockstep dispatcher that issues reads to the PEs in waves and holds
	// every lane until the wave's slowest read finishes. Early-exiting
	// reads (dirty or unmappable ones) idle their lane for the remainder
	// of the wave, so WaveCycles - KernelCycles measures the divergence a
	// quality-sorted batch removes. Accounting only: KernelTime always
	// derives from KernelCycles, the work-balanced model, so enabling the
	// wave metric changes no result or modeled time.
	WaveCycles uint64
	// Events is the OpenCL-style event log of the run.
	Events []Event
	// HostWallTime is how long the simulator actually took, for sanity
	// checks; it plays no role in the model.
	HostWallTime time.Duration
}

// Total is the modeled end-to-end device time, the quantity Tables I and II
// report for BWaveR-FPGA.
func (p Profile) Total() time.Duration {
	return p.Setup + p.IndexTransfer + p.QueryTransfer + p.KernelTime + p.ResultTransfer + p.Reconfig + p.RetryBackoff - p.Overlap
}

// Merge charges a further run on top of p, as a job mapped in batches is
// charged: every stage and cycle count adds up, and o's events are laid on
// the timeline after p's, shifted by p's modeled time.
func (p *Profile) Merge(o Profile) {
	at, n := p.Total(), len(p.Events)
	p.Events = append(p.Events, o.Events...)
	for i := n; i < len(p.Events); i++ {
		e := &p.Events[i]
		e.Queued += at
		e.Submitted += at
		e.Start += at
		e.End += at
	}
	p.Setup += o.Setup
	p.IndexTransfer += o.IndexTransfer
	p.QueryTransfer += o.QueryTransfer
	p.KernelTime += o.KernelTime
	p.ResultTransfer += o.ResultTransfer
	p.Reconfig += o.Reconfig
	p.RetryBackoff += o.RetryBackoff
	p.Overlap += o.Overlap
	p.KernelCycles += o.KernelCycles
	p.WaveCycles += o.WaveCycles
	p.HostWallTime += o.HostWallTime
}

// EnergyJoules is board power times modeled time, the paper's
// power-efficiency accounting.
func (p Profile) EnergyJoules(powerWatts float64) float64 {
	return powerWatts * p.Total().Seconds()
}

// Run is a completed device run of one workload: its per-read results R by
// input position and the modeled profile of the run.
type Run[R any] struct {
	Results []R
	Profile Profile
	// SeedCycles and ExtendCycles split Profile.KernelCycles into the two
	// passes of a seed-and-extend run, zero for the other workloads. On a
	// farm each is the slowest card's, so the two bracket the aggregate
	// charge rather than summing to it.
	SeedCycles, ExtendCycles uint64
	// Checksum is the per-batch checksum the device computed over its
	// results before the result transfer; VerifyChecksum recomputes it
	// host-side to detect transfer corruption.
	Checksum uint64
	work     Workload[R]
}

// VerifyChecksum recomputes the batch checksum over the received results and
// returns ErrResultCorrupt on mismatch.
func (r *Run[R]) VerifyChecksum() error {
	if r.work.sum(r.Results) != r.Checksum {
		return ErrResultCorrupt
	}
	return nil
}

// progressEvery is how many completed queries a run reports progress after.
const progressEvery = 256

// MapRunOptions control one mapping run on a programmed kernel. The zero
// value means no cancellation, no progress reporting, and a fresh index
// transfer charged to the run.
type MapRunOptions struct {
	// Context, if non-nil, cancels the run between queries; the call
	// returns the context's error.
	Context context.Context
	// Progress, if non-nil, is called with (done, total) roughly every 256
	// completed queries and once at the end, from the calling goroutine.
	Progress func(done, total int)
	// IndexResident marks the succinct structure as already transferred to
	// BRAM by an earlier run on this kernel, so the profile charges no
	// index transfer — the amortization the paper's fixed-overhead
	// argument relies on when a service reuses a programmed device.
	IndexResident bool
}

// host is the run's options as the core batch engine takes them, locating
// when the workload does. One worker: a kernel is one simulated card, and its
// shard maps in the farm's sequence.
func (o MapRunOptions) host(locate bool) core.MapOptions {
	return core.MapOptions{Context: o.Context, Locate: locate, Workers: 1, Progress: o.Progress, ProgressEvery: progressEvery}
}

// Workload is one kind of mapping as the device runs it, with per-read
// results R: Exact, TwoPass or Mem. A value carries what its kind needs — a
// mismatch budget, the mem options and the mem schedule — and runKernel,
// runFarm and Session own everything else.
type Workload[R any] interface {
	// pairAligned reports whether consecutive reads are mate pairs, which
	// must not split across cards: pairing context is shard-local.
	pairAligned() bool
	// admit gates a run on what the workload needs of k and returns the
	// modeled transfer of the structures it keeps BRAM-resident.
	admit(k *Kernel) (indexTransfer time.Duration, err error)
	// execute maps reads into run.Results through the same core entry point
	// the CPU path calls — both backends agree by construction — and prices
	// them, rolling the stages of any pass after the first.
	execute(k *Kernel, run *Run[R], reads []dna.Seq, opts MapRunOptions) (passes Profile, err error)
	// verify recomputes every stride-th result on the host; none at stride 0.
	verify(ix *core.Index, reads []dna.Seq, results []R, stride int) error
	// sum folds the results' deterministic fields into the per-batch FNV-1a
	// value; corrupt flips one bit it covers, in result i.
	sum(results []R) uint64
	corrupt(results []R, i int, bit uint64)
	// mapped is told of every batch a Session on f mapped, in order, for a
	// schedule that spans a session's batches.
	mapped(f *Farm, run *Run[R])
}

// pass prices one pass over the fabric at k's clock and bus speed: queries
// records streamed in, cycles of kernel time, results records streamed out.
// A double-buffered pass hides the shorter of its own stream and kernel.
func (k *Kernel) pass(cycles uint64, queries, results int) Profile {
	p := Profile{
		QueryTransfer:  k.dev.transfer(queries * QueryRecordBytes),
		KernelTime:     k.dev.cyclesToTime(cycles),
		ResultTransfer: k.dev.transfer(results * ResultRecordBytes),
		KernelCycles:   cycles,
	}
	if k.dev.cfg.DoubleBuffer {
		p.Overlap = min(p.QueryTransfer, p.KernelTime)
	}
	return p
}

// assemble completes the profile of a run's passes with the fixed setup, the
// index transfer and the event timeline.
func (k *Kernel) assemble(passes Profile, indexTransfer time.Duration) Profile {
	passes.Setup, passes.IndexTransfer = k.dev.cfg.SetupTime, indexTransfer
	passes.Events = tagEvents(buildEvents(passes), k.dev.id, 1, 0)
	return passes
}

// validateReads checks that every read fits the 512-bit query record. An
// empty read fits: it is a query of no steps that maps nowhere, as on the
// host.
func validateReads(reads []dna.Seq) error {
	for i, r := range reads {
		if len(r) > MaxQueryBases {
			return fmt.Errorf("fpga: read %d has %d bases; the 512-bit query record holds at most %d",
				i, len(r), MaxQueryBases)
		}
	}
	return nil
}

// rollPass rolls the injectable stages that open a pass, in stage order:
// index load (only when the structure is not already resident), query
// streaming, then the kernel itself — a hang the runtime watchdog reports as
// a timeout.
func (k *Kernel) rollPass(loadIndex bool) error {
	inj := k.dev.inj
	if loadIndex {
		if err := inj.at(StageIndexLoad); err != nil {
			return err
		}
	}
	if err := inj.at(StageQueryTransfer); err != nil {
		return err
	}
	return inj.at(StageKernel)
}

// runKernel is the one device run: validate the reads, roll the stages that
// open the run, execute and price every pass, checksum, roll the result
// transfer, corrupt, and assemble the profile and its events.
func runKernel[R any](k *Kernel, w Workload[R], reads []dna.Seq, opts MapRunOptions) (*Run[R], error) {
	wallStart := time.Now()
	if err := validateReads(reads); err != nil {
		return nil, err
	}
	indexTransfer, err := w.admit(k)
	if err != nil {
		return nil, err
	}
	if opts.IndexResident {
		indexTransfer = 0
	}
	if err := k.rollPass(!opts.IndexResident); err != nil {
		return nil, err
	}
	run := &Run[R]{Results: make([]R, len(reads)), work: w}
	passes, err := w.execute(k, run, reads, opts)
	if err != nil {
		return nil, err
	}

	// The device checksums the batch before the result transfer; a result
	// transfer fault drops the batch, a corruption fault silently flips
	// bits afterwards for the host-side verification to catch.
	run.Checksum = w.sum(run.Results)
	if err := k.dev.inj.at(StageResultTransfer); err != nil {
		return nil, err
	}
	if i, bit, hit := k.dev.inj.corrupt(len(reads)); hit {
		w.corrupt(run.Results, i, bit)
	}
	run.Profile = k.assemble(passes, indexTransfer)
	run.Profile.HostWallTime = time.Since(wallStart)
	return run, nil
}

// exactWork is exact matching on the device: both orientations of every read
// through the search pipelines, one step per cycle. With locate, the host
// resolves every result's positions, the paper's final host-side step, from
// the search that found them.
type exactWork struct{ locate bool }

// Exact is exact matching as a device workload; locate fills the results'
// positions as core's MapOptions.Locate does. The device returns row ranges
// either way: the model, the checksum and the cross-check see only them.
func Exact(locate bool) Workload[core.MapResult] { return exactWork{locate} }

func (exactWork) pairAligned() bool                           { return false }
func (exactWork) admit(k *Kernel) (time.Duration, error)      { return k.indexTransfer, nil }
func (exactWork) sum(results []core.MapResult) uint64         { return ChecksumResults(results) }
func (exactWork) corrupt(r []core.MapResult, i int, b uint64) { r[i].Forward.Start ^= 1 << b }
func (exactWork) mapped(*Farm, *Run[core.MapResult])          {}

// execute searches in the kernel's own ftab mode — not the host index's — so a
// BRAM-degraded kernel's cycle accounting matches the fabric it models.
func (w exactWork) execute(k *Kernel, run *Run[core.MapResult], reads []dna.Seq, opts MapRunOptions) (Profile, error) {
	if _, err := k.ix.MapReadsIntoFtab(run.Results, reads, opts.host(w.locate), k.useFtab); err != nil {
		return Profile{}, err
	}
	return k.searchCost(len(reads), func(i int) int { return run.Results[i].Steps }), nil
}

func (exactWork) verify(ix *core.Index, reads []dna.Seq, results []core.MapResult, stride int) error {
	return core.VerifySampled(ix, reads, results, stride)
}

// pipelineCycles is the closed-form pipeline model every pass is priced with:
// the queries' summed steps plus a fixed overhead each, spread over the PEs,
// after one pipeline fill.
func (k *Kernel) pipelineCycles(steps, queries int) uint64 {
	cfg := k.dev.cfg
	work := uint64(steps)*k.stepCycles() + uint64(queries)*uint64(cfg.QueryOverheadCycles)
	return uint64(cfg.PipelineFillCycles) + work/uint64(cfg.PEs)
}

// searchCost prices the exact pass over n reads, the i-th of which took
// steps(i) backward-search steps.
func (k *Kernel) searchCost(n int, steps func(i int) int) Profile {
	// Wave accounting: reads issue in waves of cfg.PEs lanes; each wave is
	// charged for its slowest lane.
	cfg, perStep := k.dev.cfg, k.stepCycles()
	total := 0
	waveCycles := uint64(cfg.PipelineFillCycles)
	for lo := 0; lo < n; lo += cfg.PEs {
		slowest := 0
		for i := lo; i < min(lo+cfg.PEs, n); i++ {
			s := steps(i)
			total += s
			slowest = max(slowest, s)
		}
		waveCycles += uint64(slowest)*perStep + uint64(cfg.QueryOverheadCycles)
	}
	p := k.pass(k.pipelineCycles(total, n), n, n)
	p.WaveCycles = waveCycles
	return p
}

// MapReadsOpts maps a batch of reads on the device. Every read must fit the
// 512-bit query record (at most MaxQueryBases bases). The search itself is
// executed bit-for-bit (results are exact); cycles are charged per the
// pipeline model described in the package comment.
func (k *Kernel) MapReadsOpts(reads []dna.Seq, opts MapRunOptions) (*Run[core.MapResult], error) {
	return runKernel(k, Exact(false), reads, opts)
}

// tagEvents stamps run identity (device, attempt, shard) onto every event.
func tagEvents(events []Event, device, attempt, shard int) []Event {
	for i := range events {
		events[i].Device = device
		events[i].Attempt = attempt
		events[i].Shard = shard
	}
	return events
}

// buildEvents lays the run's commands on a virtual timeline in dependency
// order, the way an in-order OpenCL command queue would schedule them.
func buildEvents(p Profile) []Event {
	t := time.Duration(0)
	mk := func(name string, queuedAt, d time.Duration) Event {
		e := Event{Name: name, Queued: queuedAt, Submitted: t, Start: t, End: t + d}
		t += d
		return e
	}
	events := make([]Event, 0, 6)
	events = append(events, mk("setup", 0, p.Setup))
	events = append(events, mk("write:index", 0, p.IndexTransfer))
	if p.Overlap > 0 {
		// Double buffering: queries stream while the kernel runs; the
		// merged phase spans the longer of the two.
		events = append(events, mk("stream:queries+kernel", 0, p.QueryTransfer+p.KernelTime-p.Overlap))
	} else {
		events = append(events, mk("write:queries", 0, p.QueryTransfer))
		events = append(events, mk("kernel:bwaver", 0, p.KernelTime))
	}
	if p.Reconfig > 0 {
		events = append(events, mk("reconfigure", 0, p.Reconfig))
	}
	events = append(events, mk("read:results", 0, p.ResultTransfer))
	return events
}

// ModelProfile returns the modeled profile for a batch of nReads reads whose
// mean per-query pipeline occupancy (max of forward/reverse step counts) is
// avgStepsPerRead, without functionally executing the searches. The bench
// harness uses it to extrapolate the paper's 100-million-read workloads from
// a measured sample: the cycle model is linear in the summed step counts, so
// the extrapolation is exact up to sampling error in avgStepsPerRead.
func (k *Kernel) ModelProfile(nReads int, avgStepsPerRead float64) Profile {
	cfg := k.dev.cfg
	stepCycles := uint64(float64(nReads) * (avgStepsPerRead*float64(k.stepCycles()) + float64(cfg.QueryOverheadCycles)))
	return k.assemble(k.pass(uint64(cfg.PipelineFillCycles)+stepCycles/uint64(cfg.PEs), nReads, nReads), k.indexTransfer)
}
