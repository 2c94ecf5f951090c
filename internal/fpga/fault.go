package fpga

// Fault injection for the simulated accelerator. Real host-FPGA deployments
// fail in ways a clean functional simulator never exercises: PCIe transfer
// errors, kernel hangs caught by the runtime watchdog, and corrupted result
// payloads. A FaultPlan describes, deterministically and reproducibly, when
// the simulated device misbehaves; the resilience layer in farm.go and the
// CPU fallback in internal/server are what those faults exercise.
//
// Determinism is the design constraint throughout: every device draws from
// its own splitmix64 substream derived from (plan seed, device ID), and a
// roll happens at a fixed point in each modeled stage, so the same plan
// against the same request sequence produces the identical fault sequence —
// which the tests assert, including under the race detector.

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"bwaver/internal/core"
	"bwaver/internal/fmindex"
)

// FaultStage identifies the modeled stage of a device run at which a fault
// can strike.
type FaultStage int

// The injectable stages. stageCorruption does not error: it silently flips
// a bit in the reported results after the batch checksum was recorded,
// modeling corruption on the PCIe result transfer that only the host-side
// checksum verification can catch.
const (
	stageIndexLoad FaultStage = iota
	stageQueryTransfer
	stageKernel
	stageResultTransfer
	stageCorruption
	numFaultStages
)

var faultStageNames = [numFaultStages]string{"index", "query", "kernel", "result", "corrupt"}

// String returns the stage's name as used in the textual fault-plan form.
func (s FaultStage) String() string {
	if s < 0 || s >= numFaultStages {
		return "unknown"
	}
	return faultStageNames[s]
}

func parseFaultStage(name string) (FaultStage, error) {
	for i, n := range faultStageNames {
		if n == name {
			return FaultStage(i), nil
		}
	}
	return 0, fmt.Errorf("fpga: unknown fault stage %q (want one of %s)",
		name, strings.Join(faultStageNames[:], ", "))
}

// FaultPlan is a deterministic, seedable description of simulated faults.
// Transient faults fire independently per operation with the configured
// probability; persistent faults pin a stage of one device to permanent
// failure, the "card is dead" scenario the circuit breaker exists for.
type FaultPlan struct {
	// Seed drives every random draw; the same seed reproduces the same
	// fault sequence for the same request sequence.
	Seed uint64
	// Transient holds the per-operation fault probability for each stage,
	// indexed by FaultStage.
	Transient [numFaultStages]float64
	// Persistent maps a device ID to the stages that always fail on it.
	Persistent map[int][]FaultStage
}

// ParseFaultPlan parses the textual plan form used by the -fault-plan flag:
// comma-separated key=value entries. Keys are "seed" (uint64), a stage name
// ("index", "query", "kernel", "result", "corrupt") with a probability in
// [0,1], or "persistent" with a DEVICE:STAGE value (repeatable):
//
//	seed=42,query=0.05,kernel=0.01,corrupt=0.02,persistent=0:kernel
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	plan := &FaultPlan{}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, errors.New("fpga: empty fault plan")
	}
	for _, entry := range strings.Split(spec, ",") {
		key, value, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok {
			return nil, fmt.Errorf("fpga: fault-plan entry %q is not key=value", entry)
		}
		switch key {
		case "seed":
			seed, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fpga: fault-plan seed: %w", err)
			}
			plan.Seed = seed
		case "persistent":
			devStr, stageStr, ok := strings.Cut(value, ":")
			if !ok {
				return nil, fmt.Errorf("fpga: persistent fault %q is not DEVICE:STAGE", value)
			}
			dev, err := strconv.Atoi(devStr)
			if err != nil || dev < 0 {
				return nil, fmt.Errorf("fpga: persistent fault device %q must be a non-negative integer", devStr)
			}
			stage, err := parseFaultStage(stageStr)
			if err != nil {
				return nil, err
			}
			if plan.Persistent == nil {
				plan.Persistent = map[int][]FaultStage{}
			}
			plan.Persistent[dev] = append(plan.Persistent[dev], stage)
		default:
			stage, err := parseFaultStage(key)
			if err != nil {
				return nil, err
			}
			p, err := strconv.ParseFloat(value, 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("fpga: fault probability %s=%q must be in [0,1]", key, value)
			}
			plan.Transient[stage] = p
		}
	}
	return plan, nil
}

func (p *FaultPlan) persistentAt(device int, stage FaultStage) bool {
	for _, s := range p.Persistent[device] {
		if s == stage {
			return true
		}
	}
	return false
}

// FaultError is a simulated device failure at a modeled stage. All fault
// errors are retryable by the resilience layer; persistent ones simply keep
// failing until the device's circuit breaker takes it out of rotation.
type FaultError struct {
	Device     int
	Stage      FaultStage
	Persistent bool
}

// Error implements error.
func (e *FaultError) Error() string {
	kind := "transient"
	if e.Persistent {
		kind = "persistent"
	}
	if e.Stage == stageKernel {
		return fmt.Sprintf("fpga: device %d: %s kernel timeout (simulated hang)", e.Device, kind)
	}
	return fmt.Sprintf("fpga: device %d: %s fault during %s transfer", e.Device, kind, e.Stage)
}

// errResultCorrupt is returned by Run.VerifyChecksum when the received
// result batch does not match the checksum the kernel computed before the
// transfer — the host-side detector for stageCorruption faults.
var errResultCorrupt = errors.New("fpga: result batch failed checksum verification (corrupted transfer)")

// FaultEvent is one injected fault, for determinism auditing: the same plan
// seed must produce the identical event sequence.
type FaultEvent struct {
	Device     int
	Stage      FaultStage
	Persistent bool
	// Op is the device-local operation ordinal at which the fault fired.
	Op uint64
}

// splitmix64 is the PRNG behind every fault draw: tiny, seedable, and stable
// across Go releases (unlike math/rand's default source ordering guarantees).
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func rand01(state *uint64) float64 {
	return float64(splitmix64(state)>>11) / (1 << 53)
}

// faultInjector is one device's view of a FaultPlan: its own deterministic
// substream plus injection counters and an event log.
type faultInjector struct {
	mu     sync.Mutex
	plan   *FaultPlan
	device int
	rng    uint64
	ops    uint64
	counts [numFaultStages]uint64
	log    []FaultEvent
}

func newFaultInjector(plan *FaultPlan, device int) *faultInjector {
	// Derive a per-device substream so the fault sequence on one device is
	// independent of how many operations the others ran.
	state := plan.Seed ^ (uint64(device+1) * 0x9e3779b97f4a7c15)
	splitmix64(&state)
	return &faultInjector{plan: plan, device: device, rng: state}
}

func (j *faultInjector) recordLocked(stage FaultStage, persistent bool) {
	j.counts[stage]++
	j.log = append(j.log, FaultEvent{Device: j.device, Stage: stage, Persistent: persistent, Op: j.ops})
}

// at rolls the injector at a stage, returning a *FaultError when a fault
// fires; a nil injector — a device without a fault plan — never does.
// Persistent faults fire without consuming a random draw, so adding one to a
// plan does not shift the transient sequence of other stages.
func (j *faultInjector) at(stage FaultStage) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.ops++
	if j.plan.persistentAt(j.device, stage) {
		j.recordLocked(stage, true)
		return &FaultError{Device: j.device, Stage: stage, Persistent: true}
	}
	if p := j.plan.Transient[stage]; p > 0 && rand01(&j.rng) < p {
		j.recordLocked(stage, false)
		return &FaultError{Device: j.device, Stage: stage}
	}
	return nil
}

// corrupt rolls the corruption stage for a batch of n results; it strikes
// silently, so the roll's error only says it hit. On a hit it picks the
// result and the bit to flip — after the batch checksum was recorded,
// modeling corruption on the PCIe result transfer — and the workload applies
// the flip where its checksum sees it.
func (j *faultInjector) corrupt(n int) (i int, bit uint64, hit bool) {
	if n == 0 || j.at(stageCorruption) == nil {
		return 0, 0, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	i = int(splitmix64(&j.rng) % uint64(n))
	bit = splitmix64(&j.rng) % 16
	return i, bit, true
}

func (j *faultInjector) events() []FaultEvent {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]FaultEvent(nil), j.log...)
}

func (j *faultInjector) faultCounts() map[string]uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := map[string]uint64{}
	for s, c := range j.counts {
		if c > 0 {
			out[FaultStage(s).String()] = c
		}
	}
	return out
}

// fnv is the FNV-1a state behind the batch checksums.
type fnv uint64

const fnvOffset fnv = 14695981039346656037

func (h *fnv) byte(b byte) { *h = (*h ^ fnv(b)) * 1099511628211 }

// word mixes v in, low byte first.
func (h *fnv) word(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v))
		v >>= 8
	}
}

// rows mixes a row range in.
func (h *fnv) rows(r fmindex.Range) {
	h.word(uint64(int64(r.Start)))
	h.word(uint64(int64(r.End)))
}

// checksumResults computes the per-batch FNV-1a checksum the simulated
// kernel appends to its result stream; the host recomputes it over the
// received batch to detect transfer corruption before trusting the ranges.
func checksumResults(results []core.MapResult) uint64 {
	h := fnvOffset
	for _, r := range results {
		h.rows(r.Forward)
		h.rows(r.Reverse)
	}
	return uint64(h)
}
