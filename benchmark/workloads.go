package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	scaleFull  = "full"
	scaleSmoke = "smoke"

	pinnedSeed = 1

	// workers is the mapping parallelism of every workload: the 2 cores of
	// the reference host. Fixed, so results from a larger host stay
	// comparable per worker.
	workers = 2

	readLength = 100
	mateLength = 150
)

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	scale    string
	root     string // repository root: where the server is built from
	outDir   string // traces, results and scratch files
}

// sizes are the input sizes of one scale. References are the paper's lengths.
// Read sets are cut from the issue's 200 000 reads / 6 000 pairs to what the
// driver's time allows; the whole set is mapped once (warm-up, correctness,
// accuracy) and every timed pass maps its first passReads / passPairs, a
// multiple of the engines' work-stealing chunk so both workers get equal
// shares. Passes are short on purpose, see timedPasses.
type sizes struct {
	chr21Bases, ecoliBases int // 0 = the paper's length
	chr21Reads, ecoliReads int
	pairs                  int
	chr21Pass, ecoliPass   int // reads one timed pass maps
	passPairs              int
	ladderOps              int // operations each single-call rung is timed over
	fpgaReads              int // reads one simulator run maps
	builds, fpgaRuns       int
	minPasses              int
}

func (c runConfig) sizes() sizes {
	if c.scale == scaleSmoke {
		return sizes{chr21Bases: 100_000, ecoliBases: 100_000, chr21Reads: 2000, ecoliReads: 2000, pairs: 96,
			chr21Pass: 512, ecoliPass: 512, passPairs: 16,
			ladderOps: 20_000, fpgaReads: 500, builds: 2, fpgaRuns: 2, minPasses: 3}
	}
	return sizes{chr21Reads: 20_000, ecoliReads: 20_000, pairs: 1800,
		chr21Pass: 1536, ecoliPass: 2048, passPairs: 96,
		ladderOps: 2_000_000, fpgaReads: 20_000, builds: 5, fpgaRuns: 3, minPasses: 7}
}

func (c runConfig) tracer() *tracer {
	if c.traced {
		return newTracer(c.workload)
	}
	return nil
}

// finishTrace writes trace-<workload>.json.
func (c runConfig) finishTrace(tr *tracer) error {
	if tr == nil {
		return nil
	}
	path := filepath.Join(c.outDir, "trace-"+c.workload+".json")
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("  trace written to %s (%d spans)\n", path, len(tr.spans))
	return nil
}

// timedPasses repeats pass until the run's measuring time is used up and the
// minimum sample count is reached, and returns the pass times.
//
// Passes are short (20-55 ms) and many, and callers report the fastest one.
// The host this benchmark is accepted on shares its cores and memory system
// with other tenants: the time of an identical pass wanders by +-20 % in
// regimes that last seconds to minutes, so the median of a run's passes
// measures which regime the run fell into (it repeated within 12-27 % over
// ten runs), while the fastest of ~100 short passes estimates the speed of
// the code when nothing else contends (4-7 %). Interference only ever adds
// time, so the minimum is biased towards the truth, not away from it.
//
// A traced run alternates an untraced pass (one call) with a traced one
// (chunked, a span per call) so that the difference between the two is the
// tracing overhead.
func timedPasses(cfg runConfig, tr *tracer, minPasses int, pass func(tr *tracer, parent int) error) ([]float64, error) {
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if tr != nil {
		minPasses = 3
	}
	var times []float64
	start := time.Now()
	for len(times) < minPasses || time.Since(start) < budget {
		t0 := time.Now()
		id := tr.start(0, "pass.plain")
		if err := pass(nil, 0); err != nil {
			return nil, err
		}
		tr.end(id, 0)
		times = append(times, time.Since(t0).Seconds())
		if tr != nil {
			id := tr.start(0, "pass.traced")
			if err := pass(tr, id); err != nil {
				return nil, err
			}
			tr.end(id, 0)
		}
	}
	return times, nil
}

func traceOverheadPct(tr *tracer) float64 {
	plain := fastest(tr.durations("pass.plain"))
	if plain == 0 {
		return 0
	}
	return (fastest(tr.durations("pass.traced"))/plain - 1) * 100
}

// runExact is exact-chr21 and exact-ecoli: the same code on a reference whose
// rank structure does not, or does, fit the per-core cache.
func runExact(cfg runConfig) (*result, error) {
	res := newResult(cfg)
	tr := cfg.tracer()
	sz := cfg.sizes()
	kind, bases, nReads, nPass := "ecoli", sz.ecoliBases, sz.ecoliReads, sz.ecoliPass
	if cfg.workload == wlExactChr21 {
		kind, bases, nReads, nPass = "chr21", sz.chr21Bases, sz.chr21Reads, sz.chr21Pass
	}

	setupStart := time.Now()
	setup := tr.start(0, "setup")
	ref, err := newReference(kind, cfg.seed, bases)
	if err != nil {
		return nil, err
	}
	res.pin(cfg, "reference", ref.digest())
	buildStart := time.Now()
	ix, err := buildIndex(tr, setup, ref)
	if err != nil {
		return nil, err
	}
	builds := []float64{time.Since(buildStart).Seconds()}
	reads, err := simulateExact(ref, nReads, readLength, cfg.seed)
	if err != nil {
		return nil, err
	}
	res.pin(cfg, "reads", reads.digest())
	got := newExactResults(reads.n())
	if err := ix.mapExact(nil, 0, reads, workers, got); err != nil { // warm-up
		return nil, err
	}
	tr.end(setup, 0)
	res.set("setup_s", time.Since(setupStart).Seconds(), 1)

	passReads := reads.head(nPass)
	times, err := timedPasses(cfg, tr, sz.minPasses, func(tr *tracer, parent int) error {
		return ix.mapExact(tr, parent, passReads, workers, got)
	})
	if err != nil {
		return nil, err
	}
	readsPerS := float64(passReads.n()) / fastest(times)
	res.set("reads_per_s", readsPerS, len(times))
	res.set("structure_bits_per_base", ix.structureBitsPerBase(), 1)

	failed, first, correct, planted := ix.checkExact(reads, got)
	res.check("exact positions", reads.n(), failed, first)
	res.set("correct_fraction", float64(correct)/float64(planted), planted)

	if cfg.workload == wlExactEcoli {
		// Construction is repeatable at this size. Collecting the previous
		// build first keeps peak_rss_mb the footprint of one build plus one
		// index, not of however much garbage the collector had let pile up.
		for len(builds) < sz.builds {
			runtime.GC()
			t0 := time.Now()
			if _, err := buildIndex(tr, 0, ref); err != nil {
				return nil, err
			}
			builds = append(builds, time.Since(t0).Seconds())
		}
		res.set("build_s", fastest(builds), len(builds))

		// The same reads through the device model, bit for bit.
		sub := reads.head(sz.fpgaReads)
		kernel, err := ix.program()
		if err != nil {
			return nil, err
		}
		var prof *fpgaProfile
		var walls []float64
		for i := 0; i < sz.fpgaRuns; i++ {
			p, differ, err := kernel.mapExact(tr, 0, sub, got)
			if err != nil {
				return nil, err
			}
			if prof != nil && (p.totalMs != prof.totalMs || p.kernelCycles != prof.kernelCycles) {
				res.check("fpga model repeats exactly", 1, 1, fmt.Sprintf("run %d modeled %.6f ms / %d cycles, run 1 %.6f ms / %d cycles",
					i+1, p.totalMs, p.kernelCycles, prof.totalMs, prof.kernelCycles))
			}
			res.check("fpga model equals host", sub.n(), differ, "ranges or step counts differ from MapReadsInto")
			prof = p
			walls = append(walls, p.hostWall.Seconds())
		}
		res.set("fpga_model_ms", prof.totalMs, 1)
		res.set("fpga_kernel_cycles", float64(prof.kernelCycles), 1)
		res.set("fpga_sim_reads_per_s", float64(sub.n())/fastest(walls), len(walls))
		if tr != nil {
			setFPGALayers(res, prof)
			res.set("fpga.host_ns_per_cycle", tr.seconds("fpga.Kernel.MapReadsOpts")*1e9/(float64(prof.kernelCycles)*float64(sz.fpgaRuns)), sz.fpgaRuns)
		}
	}

	if tr != nil {
		if err := exactLayers(cfg, tr, res, ix, reads, passReads, got, readsPerS); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss, 1)
	return res, cfg.finishTrace(tr)
}

func setFPGALayers(res *result, p *fpgaProfile) {
	res.set("fpga.setup_ms", p.setupMs, 1)
	res.set("fpga.index_transfer_ms", p.indexTransferMs, 1)
	res.set("fpga.query_transfer_ms", p.queryTransferMs, 1)
	res.set("fpga.kernel_ms", p.kernelMs, 1)
	res.set("fpga.reconfig_ms", p.reconfigMs, 1)
	res.set("fpga.overlap_ms", p.overlapMs, 1)
	if p.kernelCycles > 0 && p.waveCycles >= p.kernelCycles {
		res.set("fpga.wave_overhead_pct", float64(p.waveCycles-p.kernelCycles)/float64(p.kernelCycles)*100, 1)
	}
	if p.bramUtilization > 0 {
		res.set("fpga.bram_utilization", p.bramUtilization, 1)
	}
}

// exactLayers runs the rungs below the 2-worker batch pass on the reads a
// timed pass maps and derives the per-layer metrics of an exact workload from
// the trace. Every timing is the fastest of ladderRounds rounds.
func exactLayers(cfg runConfig, tr *tracer, res *result, ix *index, reads, passReads *readSet, got *exactResults, readsPerS float64) error {
	sz := cfg.sizes()
	ladder := tr.start(0, "ladder")
	if err := ix.exactLadder(tr, ladder, passReads, cfg.seed, sz.ladderOps); err != nil {
		return err
	}
	// Allocations across one warm 2-worker pass, seen from outside.
	before := mallocs()
	if err := ix.mapExact(nil, 0, reads, workers, got); err != nil {
		return err
	}
	tr.count("core.pass_mallocs", float64(mallocs()-before))
	tr.end(ladder, 0)

	n := float64(passReads.n())
	rungOps := sz.ladderOps / ladderRounds
	res.set("rrr.rank1_ns", tr.perOp("rrr.Rank1"), rungOps)
	res.set("wavelet.rank_ns", tr.perOp("wavelet.Rank"), rungOps)
	res.set("wavelet.rankall_ns", tr.perOp("wavelet.RankAll"), rungOps)
	res.set("fmindex.step_ns", tr.perOp("fmindex.Step"), rungOps)
	res.set("fmindex.stepall_ns", tr.perOp("fmindex.StepAll"), rungOps)
	searchS := tr.best("fmindex.SearchWithFtabSteps")
	steps := tr.counter("fmindex.search_steps")
	res.set("fmindex.search_us_per_read", searchS*1e6/n, passReads.n())
	res.set("fmindex.steps_per_read", steps/n, passReads.n())
	if lookups := tr.counter("fmindex.ftab_lookups"); lookups > 0 {
		res.set("fmindex.ftab_hit_ratio", tr.counter("fmindex.ftab_hits")/lookups, int(lookups))
	}
	// Each step is two rank queries, one per end of the range.
	res.set("fmindex.implied_rank_share", steps*2*tr.perOp("wavelet.Rank")/(searchS*1e9), passReads.n())
	locateS := tr.best("fmindex.LocateAppend")
	occs := tr.ops("fmindex.LocateAppend") / ladderRounds
	res.set("fmindex.locate_ns_per_occ", tr.perOp("fmindex.LocateAppend"), int(occs))
	res.set("fmindex.occ_per_read", occs/n, passReads.n())
	res.set("core.mapread_us", tr.perOp("core.MapRead")/1e3, passReads.n())
	oneS := tr.best("core.MapReadsInto.1w")
	res.set("core.reads_per_s_1w", n/oneS, ladderRounds)
	res.set("core.scaling_efficiency", readsPerS/(workers*n/oneS), 1)
	res.set("core.engine_overhead_ratio", oneS/(searchS+locateS), 1)
	res.set("core.allocs_per_read", tr.counter("core.pass_mallocs")/float64(reads.n()), reads.n())

	// The Bowtie2-style checkpointed index on the same reads: an
	// independent oracle for the counts and the gap item 2 must close.
	base, err := newBaseline(tr, 0, ix.ref)
	if err != nil {
		return err
	}
	differ, err := base.mapAndCompare(tr, 0, reads, workers, got)
	if err != nil {
		return err
	}
	res.check("baseline occurrence counts", reads.n(), differ, "checkpointed index counts differ from the succinct index's")
	for round := 0; round < ladderRounds; round++ {
		if _, err := base.mapAndCompare(tr, 0, passReads, workers, got); err != nil {
			return err
		}
	}
	if err := base.occLadder(tr, 0, cfg.seed, sz.ladderOps); err != nil {
		return err
	}
	baseRate := 1e9 / tr.perOp("baseline.MapReads")
	res.set("baseline.reads_per_s", baseRate, ladderRounds)
	res.set("baseline.checkpoint_occ_ns", tr.perOp("baseline.CheckpointOcc.Occ"), rungOps)
	res.set("baseline.gap_ratio", baseRate/readsPerS, 1)

	path := filepath.Join(cfg.outDir, "index-"+cfg.workload+".bwx")
	size, err := ix.saveLoad(tr, 0, path)
	os.Remove(path)
	if err != nil {
		return err
	}
	res.set("core.save_s", tr.seconds("core.SaveFile"), 1)
	res.set("core.load_s", tr.seconds("core.LoadFile"), 1)
	res.set("core.index_bytes", float64(size), 1)

	if cfg.workload == wlExactEcoli {
		if err := buildByHand(tr, 0, ix.ref); err != nil {
			return err
		}
		res.set("suffixarray.build_s", tr.seconds("suffixarray.Build"), 1)
		res.set("bwt.build_s", tr.seconds("bwt.Transform"), 1)
		res.set("wavelet.encode_s", tr.seconds("wavelet.New"), 1)
		res.set("fmindex.ftab_build_s", tr.seconds("fmindex.BuildFtab"), 1)
	}
	res.set("harness.trace_overhead_pct", traceOverheadPct(tr), len(tr.durations("pass.traced")))
	return nil
}

// runMemPE is mem-pe-ecoli: paired seed-and-extend on the E. coli index.
func runMemPE(cfg runConfig) (*result, error) {
	res := newResult(cfg)
	tr := cfg.tracer()
	sz := cfg.sizes()

	setupStart := time.Now()
	setup := tr.start(0, "setup")
	ref, err := newReference("ecoli", cfg.seed, sz.ecoliBases)
	if err != nil {
		return nil, err
	}
	res.pin(cfg, "reference", ref.digest())
	ix, err := buildIndex(tr, setup, ref)
	if err != nil {
		return nil, err
	}
	if err := ix.ensureMem(tr, setup); err != nil {
		return nil, err
	}
	reads, err := simulatePairs(ref, sz.pairs, mateLength, cfg.seed)
	if err != nil {
		return nil, err
	}
	res.pin(cfg, "pairs", reads.digest())
	got := newMemResults(reads.n())
	if err := ix.mapMem(nil, 0, reads, workers, got); err != nil { // warm-up
		return nil, err
	}
	tr.end(setup, 0)
	res.set("setup_s", time.Since(setupStart).Seconds(), 1)

	passReads := reads.head(2 * sz.passPairs)
	times, err := timedPasses(cfg, tr, sz.minPasses, func(tr *tracer, parent int) error {
		return ix.mapMem(tr, parent, passReads, workers, got)
	})
	if err != nil {
		return nil, err
	}
	readsPerS := float64(passReads.n()) / fastest(times)
	res.set("reads_per_s", readsPerS, len(times))
	res.set("structure_bits_per_base", ix.structureBitsPerBase(), 1)

	failed, first, correct, planted := ix.checkMem(reads, got)
	res.check("mem alignments", reads.n(), failed, first)
	fraction := float64(correct) / float64(planted)
	res.set("correct_fraction", fraction, planted)
	checkCorrectFraction(cfg, res, fraction)

	// One session on the device model over the same reads, in 3 batches.
	prof, differ, err := ix.memSession(tr, 0, reads, 3, got)
	if err != nil {
		return nil, err
	}
	res.check("fpga mem session equals host", reads.n(), differ, "MemSession result differs from MapReadsMemInto")
	res.set("fpga_model_ms", prof.totalMs, 1)
	res.set("fpga_kernel_cycles", float64(prof.kernelCycles), 1)

	if tr != nil {
		setFPGALayers(res, prof)
		res.set("fpga.seed_cycles", float64(prof.seedCycles), 1)
		res.set("fpga.extend_cycles", float64(prof.extendCycles), 1)
		res.set("fpga.host_ns_per_cycle", tr.seconds("fpga.MemSession.Map")*1e9/float64(prof.kernelCycles), 1)
		if err := memLayers(cfg, tr, res, ix, reads, passReads, got); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss, 1)
	return res, cfg.finishTrace(tr)
}

// checkCorrectFraction holds placement accuracy to the value recorded for
// the pinned seed. Another seed draws another genome and other reads (ten
// seeds ranged 0.79-0.83), so it is held to the metric's regression bound
// below that value instead.
func checkCorrectFraction(cfg runConfig, res *result, fraction float64) {
	floor := pins[cfg.workload].CorrectFraction
	if cfg.scale != scaleFull || floor == 0 {
		return
	}
	if cfg.seed != pinnedSeed {
		m, _ := metricByName("correct_fraction")
		floor *= 1 - m.Bound
	}
	failed := 0
	if fraction < floor {
		failed = 1
	}
	res.check("correct_fraction floor", 1, failed, fmt.Sprintf("%.6f is below the recorded %.6f", fraction, floor))
}

// memLayers derives the per-layer metrics of the mem workload on the reads a
// timed pass maps. Every timing is the fastest of ladderRounds rounds.
func memLayers(cfg runConfig, tr *tracer, res *result, ix *index, reads, passReads *readSet, got *memResults) error {
	ladder := tr.start(0, "ladder")
	one := newMemResults(passReads.n())
	for round := 0; round < ladderRounds; round++ {
		id := tr.start(ladder, "core.MapReadsMemInto.1w")
		if err := ix.mapMem(nil, 0, passReads, 1, one); err != nil {
			return err
		}
		tr.end(id, int64(passReads.n()))
	}
	one.countsInto(tr)
	before := mallocs()
	if err := ix.mapMem(nil, 0, reads, workers, got); err != nil {
		return err
	}
	tr.count("core.pass_mallocs", float64(mallocs()-before))
	if err := ix.smemLadder(tr, ladder, passReads); err != nil {
		return err
	}
	if err := ix.extendLadder(tr, ladder, passReads, one); err != nil {
		return err
	}
	tr.end(ladder, 0)

	n := float64(passReads.n())
	usPerRead := tr.perOp("core.MapReadsMemInto.1w") / 1e3
	smemUs := tr.perOp("fmindex.SMEMsAppend") / 1e3
	cells := tr.counter("core.mem_cells") / n
	nsPerCell := tr.perOp("align.ExtendSeed")
	extensions := tr.counter("align.extensions")
	res.set("core.mem_us_per_read_1w", usPerRead, passReads.n())
	res.set("core.reads_per_s_1w", 1e6/usPerRead, ladderRounds)
	res.set("core.scaling_efficiency", res.value("reads_per_s")*usPerRead/1e6/workers, 1)
	res.set("core.mem_seeds_per_read", tr.counter("core.mem_seeds")/n, passReads.n())
	res.set("core.mem_extensions_per_read", tr.counter("core.mem_extensions")/n, passReads.n())
	res.set("core.mem_dp_cells_per_read", cells, passReads.n())
	res.set("core.mem_rescues", tr.counter("core.mem_rescues"), passReads.n())
	res.set("core.mem_residual_share", 1-(smemUs+cells*nsPerCell/1e3)/usPerRead, 1)
	res.set("core.allocs_per_read", tr.counter("core.pass_mallocs")/float64(reads.n()), reads.n())
	res.set("core.ensure_mem_s", tr.seconds("core.EnsureMem"), 1)
	res.set("fmindex.smem_us_per_read", smemUs, passReads.n())
	res.set("fmindex.smem_steps_per_read", tr.counter("fmindex.smem_steps")/n, passReads.n())
	res.set("align.extend_ns_per_cell", nsPerCell, int(extensions))
	res.set("align.cells_per_extension", tr.ops("align.ExtendSeed")/ladderRounds/extensions, int(extensions))
	res.set("harness.trace_overhead_pct", traceOverheadPct(tr), len(tr.durations("pass.traced")))
	return nil
}
