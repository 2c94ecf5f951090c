package main

import (
	"encoding/json"
	"fmt"
)

// Workload names. Later issues refer to these.
const (
	wlExactChr21 = "exact-chr21"
	wlExactEcoli = "exact-ecoli"
	wlMemPE      = "mem-pe-ecoli"
	wlServed     = "served-mix-ecoli"
)

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{wlExactChr21, "40 Mbp reference: the rank structure is several times the per-core L2, so rrr/wavelet/fmindex do nearly all the work and miss cache; layout and memory-parallelism changes must show here."},
	{wlExactEcoli, "4.6 Mbp reference, same code with the rank structure cache-resident: the bypass for cache-layout gains, the paper's CPU-vs-device table shape, and where index construction can be repeated."},
	{wlMemPE, "Paired 150 bp seed-and-extend on E. coli: bidirectional StepAll/RankAll instead of single-symbol Step, plus chaining and banded extension, guarded by placement accuracy."},
	{wlServed, "A real bwaver-server child driven closed-loop over HTTP by 2 clients, cold then warm cache: upload, journal fsync, parse, QC, emit and stream dominate each job, mapping does not."},
}

// Metric tiers. tierEndToEnd metrics are reported by every workload in the
// untraced run and are the ones BENCHMARK.json lists under end_to_end.
// tierGated metrics are end-to-end figures only some workloads can produce;
// the driver contract wants every end_to_end metric from every workload, so
// BENCHMARK.json lists them under per_layer, but -compare still holds them to
// their bound on the workloads that report them. tierLayer metrics come from
// the trace and carry no bound.
const (
	tierEndToEnd = "end_to_end"
	tierGated    = "gated"
	tierLayer    = "per_layer"
)

type metricSpec struct {
	Name   string
	Unit   string
	Kind   string // host (wall clock), sim (modeled device), count (exact)
	Better string // lower | higher
	Bound  float64
	Tier   string
}

var metrics = []metricSpec{
	// End to end, every workload.
	{"setup_s", "s", "host", "lower", 0.25, tierEndToEnd},
	{"reads_per_s", "reads/s", "host", "higher", 0.25, tierEndToEnd},
	{"peak_rss_mb", "MB", "host", "lower", 0.15, tierEndToEnd},
	{"structure_bits_per_base", "bits", "count", "lower", 0.05, tierEndToEnd},
	{"correct_fraction", "ratio", "count", "higher", 0.05, tierEndToEnd},

	// End to end, workload-specific.
	{"build_s", "s", "host", "lower", 0.20, tierGated},
	{"fpga_model_ms", "ms", "sim", "lower", 0.01, tierGated},
	{"fpga_kernel_cycles", "cycles", "sim", "lower", 0.01, tierGated},
	{"fpga_sim_reads_per_s", "reads/s", "host", "higher", 0.25, tierGated},
	{"exact_job_p50_s", "s", "host", "lower", 0.25, tierGated},
	{"mem_job_p50_s", "s", "host", "lower", 0.25, tierGated},
	{"first_row_p50_s", "s", "host", "lower", 0.25, tierGated},
	{"cold_job_s", "s", "host", "lower", 0.25, tierGated},

	// Per layer, from the traced run. exact_job_p90_s was an end-to-end metric
	// of the issue (bound 0.15); ten runs spread by 0.24, so by the rule in
	// README.md it sits here without a bound.
	{"exact_job_p90_s", "s", "host", "lower", 0, tierLayer},
	{"rrr.rank1_ns", "ns", "host", "lower", 0, tierLayer},
	{"wavelet.rank_ns", "ns", "host", "lower", 0, tierLayer},
	{"wavelet.rankall_ns", "ns", "host", "lower", 0, tierLayer},
	{"fmindex.step_ns", "ns", "host", "lower", 0, tierLayer},
	{"fmindex.stepall_ns", "ns", "host", "lower", 0, tierLayer},
	{"fmindex.search_us_per_read", "us", "host", "lower", 0, tierLayer},
	{"fmindex.steps_per_read", "count", "count", "lower", 0, tierLayer},
	{"fmindex.ftab_hit_ratio", "ratio", "count", "higher", 0, tierLayer},
	{"fmindex.implied_rank_share", "ratio", "host", "lower", 0, tierLayer},
	{"fmindex.locate_ns_per_occ", "ns", "host", "lower", 0, tierLayer},
	{"fmindex.occ_per_read", "count", "count", "lower", 0, tierLayer},
	{"fmindex.smem_us_per_read", "us", "host", "lower", 0, tierLayer},
	{"fmindex.smem_steps_per_read", "count", "count", "lower", 0, tierLayer},
	{"baseline.reads_per_s", "reads/s", "host", "higher", 0, tierLayer},
	{"baseline.checkpoint_occ_ns", "ns", "host", "lower", 0, tierLayer},
	{"baseline.gap_ratio", "ratio", "host", "lower", 0, tierLayer},
	{"core.mapread_us", "us", "host", "lower", 0, tierLayer},
	{"core.reads_per_s_1w", "reads/s", "host", "higher", 0, tierLayer},
	{"core.scaling_efficiency", "ratio", "host", "higher", 0, tierLayer},
	{"core.engine_overhead_ratio", "ratio", "host", "lower", 0, tierLayer},
	{"core.allocs_per_read", "count", "count", "lower", 0, tierLayer},
	{"core.mem_us_per_read_1w", "us", "host", "lower", 0, tierLayer},
	{"core.mem_seeds_per_read", "count", "count", "lower", 0, tierLayer},
	{"core.mem_extensions_per_read", "count", "count", "lower", 0, tierLayer},
	{"core.mem_dp_cells_per_read", "count", "count", "lower", 0, tierLayer},
	{"core.mem_rescues", "count", "count", "lower", 0, tierLayer},
	{"core.mem_residual_share", "ratio", "host", "lower", 0, tierLayer},
	{"core.ensure_mem_s", "s", "host", "lower", 0, tierLayer},
	{"core.save_s", "s", "host", "lower", 0, tierLayer},
	{"core.load_s", "s", "host", "lower", 0, tierLayer},
	{"core.index_bytes", "bytes", "count", "lower", 0, tierLayer},
	{"suffixarray.build_s", "s", "host", "lower", 0, tierLayer},
	{"bwt.build_s", "s", "host", "lower", 0, tierLayer},
	{"wavelet.encode_s", "s", "host", "lower", 0, tierLayer},
	{"fmindex.ftab_build_s", "s", "host", "lower", 0, tierLayer},
	{"align.extend_ns_per_cell", "ns", "host", "lower", 0, tierLayer},
	{"align.cells_per_extension", "count", "count", "lower", 0, tierLayer},
	{"fpga.setup_ms", "ms", "sim", "lower", 0, tierLayer},
	{"fpga.index_transfer_ms", "ms", "sim", "lower", 0, tierLayer},
	{"fpga.query_transfer_ms", "ms", "sim", "lower", 0, tierLayer},
	{"fpga.kernel_ms", "ms", "sim", "lower", 0, tierLayer},
	{"fpga.reconfig_ms", "ms", "sim", "lower", 0, tierLayer},
	{"fpga.overlap_ms", "ms", "sim", "higher", 0, tierLayer},
	{"fpga.seed_cycles", "cycles", "sim", "lower", 0, tierLayer},
	{"fpga.extend_cycles", "cycles", "sim", "lower", 0, tierLayer},
	{"fpga.wave_overhead_pct", "%", "sim", "lower", 0, tierLayer},
	{"fpga.bram_utilization", "ratio", "sim", "lower", 0, tierLayer},
	{"fpga.host_ns_per_cycle", "ns", "host", "lower", 0, tierLayer},
	{"fastx.parse_mb_per_s", "MB/s", "host", "higher", 0, tierLayer},
	{"qc.gate_reads_per_s", "reads/s", "host", "higher", 0, tierLayer},
	{"server.submit_ms", "ms", "host", "lower", 0, tierLayer},
	{"server.parse_ms", "ms", "host", "lower", 0, tierLayer},
	{"server.build_ms", "ms", "host", "lower", 0, tierLayer},
	{"server.map_ms", "ms", "host", "lower", 0, tierLayer},
	{"server.overhead_ms", "ms", "host", "lower", 0, tierLayer},
	{"server.stream_drain_ms", "ms", "host", "lower", 0, tierLayer},
	{"server.cpu_s_per_job", "s", "host", "lower", 0, tierLayer},
	{"server.journal_bytes_per_job", "bytes", "count", "lower", 0, tierLayer},
	{"server.cache_hit_ratio", "ratio", "count", "higher", 0, tierLayer},
	{"server.fpga_job_ms", "ms", "host", "lower", 0, tierLayer},
	{"cluster.forward_overhead_ms", "ms", "host", "lower", 0, tierLayer},
	{"cluster.first_row_overhead_ms", "ms", "host", "lower", 0, tierLayer},
	{"harness.trace_overhead_pct", "%", "host", "lower", 0, tierLayer},
}

func metricByName(name string) (metricSpec, bool) {
	for _, m := range metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// pins holds what was recorded for seed 1 at full scale: CRC-64 digests of
// every generated input, so a change to internal/readsim cannot silently
// change the workloads, and the placement accuracy the mem pipeline reached,
// which later runs may not fall below. (The driver contract fixes the keys of
// BENCHMARK.json, so the pins live here rather than there.)
type pinSet struct {
	Digests         map[string]uint64
	CorrectFraction float64
}

var pins = map[string]pinSet{
	wlExactChr21: {
		Digests: map[string]uint64{
			"reads":     0x0dea4a823e699ae5,
			"reference": 0x77bd7a2bf9506683,
		},
	},
	wlExactEcoli: {
		Digests: map[string]uint64{
			"reads":     0xdb87224bf57b6422,
			"reference": 0x9102db0e4ab6008c,
		},
	},
	wlMemPE: {
		Digests: map[string]uint64{
			"pairs":     0xbad6c9cde639a072,
			"reference": 0x9102db0e4ab6008c,
		},
		CorrectFraction: 0.8104938271604938,
	},
	wlServed: {
		Digests: map[string]uint64{
			"cold-reference-1": 0xc7474379cb6ab537,
			"cold-reference-2": 0xa66d1cab6ace1f03,
			"cold-reference-3": 0xfe830c0f66383537,
			"cold-reference-4": 0x167dcdfffe7c466d,
			"cold-reference-5": 0xa59c118788bc76e7,
			"exact-reads-0":    0x1cb00e850d8c9de1,
			"exact-reads-1":    0x4f5ba28f27f45b8a,
			"exact-reads-2":    0x84815d8d6ade53e5,
			"exact-reads-3":    0x88248667da1cce56,
			"exact-reads-4":    0xeb3bd908d6a51a72,
			"exact-reads-5":    0x5e231620663cf06b,
			"exact-reads-6":    0x308da2c45202e9a7,
			"exact-reads-7":    0x395fc68b47dde195,
			"mem-pairs-0":      0x29503dadd9aa0a95,
			"mem-pairs-1":      0xc7139932d346a259,
			"mem-pairs-2":      0x3336650ca989f79e,
			"mem-pairs-3":      0x22d8d230d2dcd0a3,
			"reference":        0x9102db0e4ab6008c,
		},
	},
}

// runSeconds is the declared measuring time of one run; the served workload's
// fixed job sequence is sized against it.
const runSeconds = 8

// manifest renders BENCHMARK.json from the tables above.
func manifest() ([]byte, error) {
	type mm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	out := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []mm           `json:"end_to_end"`
		PerLayer   []mm           `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, m := range metrics {
		e := mm{Name: m.Name, Unit: m.Unit, Better: m.Better}
		if m.Tier == tierEndToEnd {
			b := m.Bound
			e.Bound = &b
			out.EndToEnd = append(out.EndToEnd, e)
		} else {
			out.PerLayer = append(out.PerLayer, e)
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("rendering manifest: %w", err)
	}
	return append(data, '\n'), nil
}
