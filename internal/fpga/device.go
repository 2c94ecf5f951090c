// Package fpga simulates the BWaveR hardware kernel of §III-C: a Xilinx
// Alveo U200 holding the succinct BWT structure in on-chip BRAM and running
// the backward search for each query and its reverse complement in two
// parallel pipelines.
//
// The simulator is both functional and timed. Functionally it executes the
// exact same backward search as the CPU path (results are bit-identical,
// which the tests assert — the paper's "without any loss in accuracy").
// For timing it charges cycles according to the architecture the paper
// describes — fully pipelined search stepping one base per cycle per
// pipeline, a fixed per-query overhead for the 512-bit record fetch, a PCIe
// transfer model for index/query/result movement, and a fixed setup overhead
// for the OpenCL runtime — and converts cycles to time at the kernel clock.
// Absolute milliseconds are therefore a calibrated model, not silicon, but
// every relative claim of the paper (speedup growth with read count, search
// time independent of reference size, cost proportional to mapping ratio)
// emerges from executed code. See EXPERIMENTS.md for the calibration notes.
package fpga

import (
	"fmt"
	"log/slog"
	"time"

	"bwaver/internal/core"
	"bwaver/internal/resilience"
)

// Config describes the simulated accelerator card.
type Config struct {
	// ClockHz is the kernel clock; default 300 MHz, a typical SDAccel
	// kernel clock on the UltraScale+ XCU200.
	ClockHz float64
	// BRAMBytes is the on-chip memory capacity available to the BWT
	// structure; default 40 MiB (U200 BRAM + URAM). Programming an index
	// larger than this fails, the capacity gate that limits the paper to
	// references of ~100 M bases.
	BRAMBytes int
	// PCIeBytesPerSec is the host-device transfer bandwidth; default 12 GB/s.
	PCIeBytesPerSec float64
	// SetupTime is the fixed per-run overhead of the OpenCL runtime and
	// buffer management; default 200 ms, calibrated from the paper's
	// small-batch numbers (Table II: 1 M reads take 242 ms although the
	// kernel itself needs only tens of ms).
	SetupTime time.Duration
	// PowerWatts is the board power; default 25 W, the paper's reference
	// value for the Alveo U200.
	PowerWatts float64
	// PEs is the number of processing elements, each mapping independent
	// queries. The paper implements 1 and lists a multi-core architecture
	// as future work; values > 1 model that extension.
	PEs int
	// QueryOverheadCycles is the per-query pipeline overhead (record
	// fetch, reverse-complement preparation, result writeback); default 4.
	QueryOverheadCycles int
	// PipelineFillCycles is the one-off pipeline fill latency; default 64.
	PipelineFillCycles int
	// DoubleBuffer overlaps query streaming with kernel execution (two
	// query buffers ping-pong: while the kernel drains one, the host fills
	// the other), hiding min(transfer, compute) of every pass — the memory
	// burst optimisation of §III-C taken one step further.
	DoubleBuffer bool
	// SequentialRank switches the cycle model from the pipelined
	// adder-tree rank of the paper's design (one backward-search step
	// retired per cycle per pipeline) to a naive sequential class scan
	// that walks up to sf blocks per rank query — the ablation DESIGN.md
	// calls out. It quantifies why the hardware structure matters: without
	// the adder tree every step costs levels x sf/2 cycles.
	SequentialRank bool
}

// Paper-aligned defaults.
const (
	defaultClockHz       = 300e6
	defaultBRAMBytes     = 40 << 20
	defaultPCIe          = 12e9
	defaultPower         = 25.0
	defaultQueryOverhead = 4
	defaultPipelineFill  = 64
	// DefaultSetupTime is the default fixed per-run overhead; exported so
	// the bench harness can scale it alongside scaled-down workloads.
	DefaultSetupTime = 200 * time.Millisecond
	// queryRecordBytes is the 512-bit query record of §III-C.
	queryRecordBytes = 64
	// resultRecordBytes carries the two (start, end) row pairs per query.
	resultRecordBytes = 32
	// maxQueryBases is the longest read a 512-bit record can carry
	// (paper: "sequences long up to 176 bases").
	maxQueryBases = 176
)

func (c Config) withDefaults() Config {
	if c.ClockHz == 0 {
		c.ClockHz = defaultClockHz
	}
	if c.BRAMBytes == 0 {
		c.BRAMBytes = defaultBRAMBytes
	}
	if c.PCIeBytesPerSec == 0 {
		c.PCIeBytesPerSec = defaultPCIe
	}
	if c.SetupTime == 0 {
		c.SetupTime = DefaultSetupTime
	}
	if c.PowerWatts == 0 {
		c.PowerWatts = defaultPower
	}
	if c.PEs == 0 {
		c.PEs = 1
	}
	if c.QueryOverheadCycles == 0 {
		c.QueryOverheadCycles = defaultQueryOverhead
	}
	if c.PipelineFillCycles == 0 {
		c.PipelineFillCycles = defaultPipelineFill
	}
	return c
}

func (c Config) validate() error {
	if c.ClockHz <= 0 {
		return fmt.Errorf("fpga: clock %v Hz must be positive", c.ClockHz)
	}
	if c.BRAMBytes <= 0 {
		return fmt.Errorf("fpga: BRAM capacity %d must be positive", c.BRAMBytes)
	}
	if c.PCIeBytesPerSec <= 0 {
		return fmt.Errorf("fpga: PCIe bandwidth %v must be positive", c.PCIeBytesPerSec)
	}
	if c.PEs < 1 {
		return fmt.Errorf("fpga: PE count %d must be >= 1", c.PEs)
	}
	if c.PowerWatts <= 0 {
		return fmt.Errorf("fpga: power %v W must be positive", c.PowerWatts)
	}
	return nil
}

// Device is a simulated accelerator card.
type Device struct {
	cfg Config
	// id identifies the card in fault plans and health reports.
	id int
	// inj, when non-nil, injects simulated faults into the card's runs.
	inj *faultInjector
	// breaker is the card's circuit breaker; it lives on the device, not
	// the farm, so farms programmed with different indexes over the same
	// cards share health state.
	breaker *resilience.Breaker
}

// NewDevice creates a device; zero-valued config fields take the
// paper-aligned defaults above.
func NewDevice(cfg Config) (*Device, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Device{
		cfg:     cfg,
		breaker: resilience.NewBreaker(DefaultBreakerThreshold, DefaultBreakerCooldown, nil),
	}, nil
}

// Config returns the resolved device configuration.
func (d *Device) Config() Config { return d.cfg }

// EnableFaults attaches a fault plan to the device under the given device
// ID. A nil plan only assigns the ID (used in health reports). Call before
// the device takes work; not safe to race with running kernels.
func (d *Device) EnableFaults(plan *FaultPlan, deviceID int) {
	d.id = deviceID
	if plan != nil {
		d.inj = newFaultInjector(plan, deviceID)
	}
}

// Breaker returns the device's circuit breaker.
func (d *Device) Breaker() *resilience.Breaker { return d.breaker }

// transfer returns the modeled PCIe time for n bytes.
func (d *Device) transfer(n int) time.Duration {
	return time.Duration(float64(n) / d.cfg.PCIeBytesPerSec * float64(time.Second))
}

// cyclesToTime converts kernel cycles to modeled time.
func (d *Device) cyclesToTime(cycles uint64) time.Duration {
	return time.Duration(float64(cycles) / d.cfg.ClockHz * float64(time.Second))
}

// Program loads a built index onto the device, enforcing the BRAM capacity
// gate, and returns a kernel ready to map reads. The returned profile-ready
// transfer covers the succinct structure, its shared rank table, and the
// prefix-lookup table when one fits; the suffix array stays on the host
// (§III-C: positions are retrieved by the host CPU).
//
// The prefix table is optional hardware: if structure + ftab exceed BRAM
// the kernel degrades to ftab-off with a logged warning instead of failing
// the job — only the succinct structure itself is a hard capacity
// requirement. A degraded kernel runs the plain backward search (still
// bit-identical results) and its cycle model prices every step, matching
// what its fabric would actually do.
func (d *Device) Program(ix *core.Index) (*Kernel, error) {
	structure := ix.DeviceStructureBytes()
	if structure > d.cfg.BRAMBytes {
		return nil, fmt.Errorf("fpga: index needs %d bytes of BRAM, device has %d — reference too large for on-chip memory",
			structure, d.cfg.BRAMBytes)
	}
	ftabBytes := ix.FtabBytes()
	useFtab := ftabBytes > 0
	degraded := false
	if useFtab && structure+ftabBytes > d.cfg.BRAMBytes {
		slog.Warn("fpga: prefix table does not fit BRAM, degrading kernel to ftab-off",
			"device", d.id,
			"structure_bytes", structure,
			"ftab_bytes", ftabBytes,
			"bram_bytes", d.cfg.BRAMBytes,
			"ftab_k", ix.FtabK())
		useFtab = false
		degraded = true
		ftabBytes = 0
	}
	resident := structure + ftabBytes
	return &Kernel{
		dev:           d,
		ix:            ix,
		indexBytes:    resident,
		ftabBytes:     ftabBytes,
		useFtab:       useFtab,
		ftabDegraded:  degraded,
		indexTransfer: d.transfer(resident),
	}, nil
}
