package platform

import "math"

// TaskDemand describes a task's resource requirements, the inputs the
// oracle needs to "execute" it. Demands are per task instance.
type TaskDemand struct {
	// Kernel names the task type; it keys the deterministic
	// measurement jitter so that repeated invocations of the same
	// kernel at the same configuration observe the same behaviour
	// (as on real hardware, where a kernel's characteristics are a
	// property of its code and data).
	Kernel string
	// Ops is the number of compute operations the task performs.
	Ops float64
	// Bytes is the DRAM traffic (read+write) in bytes.
	Bytes float64
	// ParEff in (0,1] is the moldable-execution parallel-efficiency
	// exponent: running on n cores speeds compute up by n^ParEff.
	// 1.0 means perfectly linear scaling (the paper reports linear
	// speedup for SparseLU's BMOD on two Denver cores).
	ParEff float64
	// Activity in (0,1] scales dynamic CPU power; it models how
	// intensely the kernel exercises the functional units (FP-heavy
	// kernels burn more than pointer-chasing ones).
	Activity float64
	// RowHit in (0,1] is the DRAM row-buffer hit fraction of the
	// kernel's access stream. Streaming kernels hit open rows often
	// and pay less energy per byte; irregular kernels force row
	// activates and pay more. Zero means "unspecified" and defaults
	// to DefaultRowHit. This is a kernel property invisible to
	// JOSS's models (which only see MB), so it is a genuine source
	// of memory-power prediction error, as on the real TX2 where the
	// paper's memory power model is the least accurate (§7.3).
	RowHit float64
}

// DefaultRowHit is the row-buffer hit fraction assumed when a demand
// leaves RowHit unset.
const DefaultRowHit = 0.7

// WithScale returns a copy with Ops and Bytes multiplied by s; useful
// for building partitions of moldable tasks.
func (d TaskDemand) WithScale(s float64) TaskDemand {
	d.Ops *= s
	d.Bytes *= s
	return d
}

// CoreParams holds the per-core-type parameters of the oracle.
type CoreParams struct {
	// PerfGOPS is compute throughput in giga-ops per second per core
	// per GHz (an effective-IPC figure).
	PerfGOPS float64
	// MLP is the number of outstanding memory requests a single core
	// sustains (memory-level parallelism).
	MLP float64
	// CdynW is the dynamic power coefficient in W/(GHz·V²) per core.
	CdynW float64
	// LeakW is static power per core in W/V.
	LeakW float64
	// UncoreW is the per-cluster uncore power in W while the cluster
	// is powered.
	UncoreW float64
	// HideFrac is the fraction of min(Tcomp, Tstall) that the core's
	// out-of-order/ prefetch machinery overlaps.
	HideFrac float64
	// StallRetain is the fraction of dynamic power a fully stalled
	// core keeps burning. Aggressive prefetchers (Denver) keep the
	// memory pipeline hot while stalled; simpler cores clock-gate
	// harder.
	StallRetain float64
	// PrefetchWPerGBs is CPU-side power per GB/s of DRAM bandwidth
	// the core drives (prefetch engines, miss queues, interconnect).
	// It is what makes Denver's fast streaming cost CPU energy even
	// though the pipeline is stalled.
	PrefetchWPerGBs float64
	// IdleActW is the dynamic floor of an online-but-idle core in W
	// (clock tree, idle loop) at 1 GHz·V².
	IdleActW float64
}

// MemParams holds the memory-subsystem parameters of the oracle.
type MemParams struct {
	// LatBaseNs is the DRAM access latency component independent of
	// memory frequency (controller, wire) in nanoseconds.
	LatBaseNs float64
	// LatFreqNs is the frequency-dependent latency numerator: the
	// access adds LatFreqNs/fM nanoseconds at memory frequency fM GHz.
	LatFreqNs float64
	// PeakBWGBs is the DRAM bandwidth at the highest memory frequency
	// in GB/s.
	PeakBWGBs float64
	// BWExp is the concavity of bandwidth in fM: BW ∝ (fM/fMax)^BWExp.
	BWExp float64
	// LineBytes is the cache-line / DRAM-burst size in bytes.
	LineBytes float64
	// BgBaseW and BgFreqW give background (refresh, PHY, controller)
	// power: Bg = (BgBaseW + BgFreqW·fM)·(V/Vmax)².
	BgBaseW float64
	BgFreqW float64
	// AccessWPerGBs is access power in W per GB/s of achieved
	// bandwidth.
	AccessWPerGBs float64
}

// Oracle is the ground-truth hardware model: the stand-in for the
// physical TX2. It is deliberately a different function family
// (latency/MLP/bandwidth-cap mechanics plus deterministic measurement
// jitter) from the polynomial models JOSS fits, so that model error in
// the reproduction is real rather than zero by construction.
type Oracle struct {
	Spec Spec
	Core [NumCoreTypes]CoreParams
	Mem  MemParams
	// JitterFrac is the amplitude of the deterministic pseudo-random
	// measurement perturbation (run-to-run variation, sensor error).
	JitterFrac float64
}

// DefaultOracle returns the calibrated TX2-like oracle used by all
// experiments. Calibration targets: Denver ≈ 3×
// A57 per-core on compute-bound code; A57×2 cluster power ≤ ~2 W;
// Denver×2 ≤ ~3.5 W; memory power ≤ ~2 W; CPU-side achievable DRAM
// bandwidth in the tens of GB/s.
func DefaultOracle() *Oracle {
	o := &Oracle{
		Spec:       TX2(),
		JitterFrac: 0.02,
	}
	// Denver's MLP is well above A57's: aggressive hardware prefetch
	// gives one Denver core roughly the streaming throughput of two
	// A57 cores (as on the real TX2, where the paper's Figure 1 moves
	// Matrix Copy to Denver once memory energy counts) — and keeps
	// the pipeline burning power while stalled (high StallRetain),
	// which is why the CPU-energy-only objective prefers A57 there.
	o.Core[Denver] = CoreParams{
		PerfGOPS:        3.1,
		MLP:             9,
		CdynW:           0.52,
		LeakW:           0.10,
		UncoreW:         0.05,
		HideFrac:        0.30,
		StallRetain:     0.75,
		PrefetchWPerGBs: 0.045,
		IdleActW:        0.012,
	}
	o.Core[A57] = CoreParams{
		PerfGOPS:        1.0,
		MLP:             3.2,
		CdynW:           0.33,
		LeakW:           0.05,
		UncoreW:         0.05,
		HideFrac:        0.20,
		StallRetain:     0.35,
		PrefetchWPerGBs: 0.012,
		IdleActW:        0.010,
	}
	o.Mem = MemParams{
		LatBaseNs:     25,
		LatFreqNs:     75,
		PeakBWGBs:     58,
		BWExp:         0.9,
		LineBytes:     64,
		BgBaseW:       0.15,
		BgFreqW:       0.30,
		AccessWPerGBs: 0.085,
	}
	return o
}

// FNV-1a 64-bit parameters (hash/fnv), inlined so the hot-path jitter
// computation allocates nothing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

func fnvByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime64
	return h
}

// jitter returns a deterministic multiplicative perturbation in
// [1-JitterFrac, 1+JitterFrac] keyed by the kernel name, the knob
// configuration and a salt distinguishing the perturbed quantity. The
// digest is byte-for-byte the FNV-1a stream the seed implementation
// fed through hash/fnv, computed without allocating.
func (o *Oracle) jitter(kernel string, tc CoreType, nc, fc, fm int, salt string) float64 {
	if o.JitterFrac == 0 {
		return 1
	}
	h := fnvString(uint64(fnvOffset64), kernel)
	h = fnvByte(h, byte(tc))
	h = fnvByte(h, byte(nc))
	h = fnvByte(h, byte(fc))
	h = fnvByte(h, byte(fm))
	h = fnvString(h, salt)
	u := float64(h%1_000_003) / 1_000_003.0 // [0,1)
	return 1 + o.JitterFrac*(2*u-1)
}

// TimeBreakdown is the oracle's account of where a task's time goes.
type TimeBreakdown struct {
	// TotalSec is wall-clock execution time.
	TotalSec float64
	// CompSec is pure compute time.
	CompSec float64
	// StallSec is exposed (non-overlapped) memory stall time.
	StallSec float64
	// StallFrac = StallSec / TotalSec, the ground-truth
	// memory-boundness the paper calls MB.
	StallFrac float64
	// BWGBs is the average DRAM bandwidth the task draws while
	// running, in GB/s.
	BWGBs float64
}

// issueScale models how a low core frequency throttles the rate at
// which a core keeps misses in flight: at low fC the effective MLP
// drops, coupling fC into stall time exactly as the paper's Time_stall
// model (Eq. 2) captures with fC/f'C terms.
func issueScale(fcGHz float64) float64 {
	s := fcGHz / 1.2
	if s > 1 {
		s = 1
	}
	return 0.35 + 0.65*s
}

// TaskTime returns the oracle's execution-time breakdown for one task
// at configuration <tc, nc, fc, fm>.
func (o *Oracle) TaskTime(d TaskDemand, cfg Config) TimeBreakdown {
	cp := o.Core[cfg.TC]
	fC := cfg.FCGHz()
	fM := cfg.FMGHz()
	n := float64(cfg.NC)
	parEff := d.ParEff
	if parEff <= 0 {
		parEff = 1
	}

	// Compute time: ops spread over n cores with efficiency n^parEff,
	// each delivering PerfGOPS·fC ops/s.
	speedup := math.Pow(n, parEff)
	comp := d.Ops / (cp.PerfGOPS * 1e9 * fC * speedup)

	// Memory stall: misses served at latency L(fM) with MLP_eff
	// outstanding, capped by DRAM bandwidth.
	misses := d.Bytes / o.Mem.LineBytes
	latSec := (o.Mem.LatBaseNs + o.Mem.LatFreqNs/fM) * 1e-9
	mlpEff := cp.MLP * math.Pow(n, 0.85) * issueScale(fC)
	stall := misses * latSec / mlpEff

	// Bandwidth cap: the task cannot stream faster than DRAM allows.
	bw := o.Mem.PeakBWGBs * 1e9 * math.Pow(fM/MemFreqsGHz[MaxFM], o.Mem.BWExp)
	if bwTime := d.Bytes / bw; bwTime > stall {
		stall = bwTime
	}

	// Overlap: part of the shorter phase hides under the longer one.
	hide := cp.HideFrac * math.Min(comp, stall)
	total := comp + stall - hide
	total *= o.jitter(d.Kernel, cfg.TC, cfg.NC, cfg.FC, cfg.FM, "t")
	if total <= 0 {
		total = 1e-12
	}

	exposed := stall - hide
	if exposed < 0 {
		exposed = 0
	}
	sf := exposed / total
	if sf > 1 { // jitter can shrink total below the unjittered stall
		sf = 1
	}
	return TimeBreakdown{
		TotalSec:  total,
		CompSec:   comp,
		StallSec:  exposed,
		StallFrac: sf,
		BWGBs:     d.Bytes / total / 1e9,
	}
}

// CPUDynPower returns the dynamic CPU power in W drawn by a task
// occupying nc cores of type tc at frequency index fc, given the
// task's exposed stall fraction (stalled pipelines burn less) and the
// DRAM bandwidth it drives (prefetch machinery burns more).
func (o *Oracle) CPUDynPower(d TaskDemand, cfg Config, stallFrac, bwGBs float64) float64 {
	cp := o.Core[cfg.TC]
	fC := cfg.FCGHz()
	v := CPUVoltage(cfg.FC)
	eff := EffActivity(d.Activity, stallFrac, cp.StallRetain)
	p := float64(cfg.NC)*cp.CdynW*v*v*fC*eff + cp.PrefetchWPerGBs*bwGBs
	return p * o.jitter(d.Kernel, cfg.TC, cfg.NC, cfg.FC, cfg.FM, "pc")
}

// EffActivity maps a kernel's activity rating, its exposed stall
// fraction and the core's stall-power retention to the factor
// multiplying Cdyn·V²·f. The activity rating is compressed into
// [0.5, 1]: even low-IPC code keeps fetch/decode and caches switching,
// so real cores span roughly a 2× dynamic-power range across
// workloads, not 10×. While stalled, a core retains `stallRetain` of
// its dynamic power (prefetchers and the memory pipeline stay hot).
func EffActivity(activity, stallFrac, stallRetain float64) float64 {
	if activity <= 0 {
		activity = 1
	}
	return (0.5 + 0.5*activity) * (1 - (1-stallRetain)*stallFrac)
}

// CPUIdlePower returns the power of n online-but-idle cores of type tc
// at frequency index fc, excluding uncore.
func (o *Oracle) CPUIdlePower(tc CoreType, n int, fc int) float64 {
	cp := o.Core[tc]
	v := CPUVoltage(fc)
	f := CPUFreqsGHz[fc]
	return float64(n) * (cp.LeakW*v + cp.IdleActW*f*v*v)
}

// ClusterUncorePower returns the always-on uncore power of a cluster.
func (o *Oracle) ClusterUncorePower(tc CoreType) float64 { return o.Core[tc].UncoreW }

// MemBackgroundPower returns the memory background power in W at
// memory frequency index fm (refresh, controller, PHY).
func (o *Oracle) MemBackgroundPower(fm int) float64 {
	v := MemVoltage(fm) / MemVoltage(MaxFM)
	return (o.Mem.BgBaseW + o.Mem.BgFreqW*MemFreqsGHz[fm]) * v * v
}

// RowHitEnergyFactor converts a row-buffer hit fraction into a
// per-byte energy multiplier: 1.0 at DefaultRowHit, higher for
// row-miss-heavy streams (activates cost energy), lower for streaming.
func RowHitEnergyFactor(rowHit float64) float64 {
	if rowHit <= 0 {
		rowHit = DefaultRowHit
	}
	return 1 + 1.5*(DefaultRowHit-rowHit)
}

// MemAccessPower returns the access component of memory power in W
// for a task drawing bwGBs of DRAM bandwidth.
func (o *Oracle) MemAccessPower(d TaskDemand, cfg Config, bwGBs float64) float64 {
	p := o.Mem.AccessWPerGBs * bwGBs * RowHitEnergyFactor(d.RowHit)
	j := o.jitter(d.Kernel, cfg.TC, cfg.NC, cfg.FC, cfg.FM, "pm")
	// Memory-power measurement is noisier than CPU power on the TX2
	// rail (shared with other consumers); widen the perturbation.
	return p * (1 + 2.5*(j-1))
}

// Measure runs one task standalone at cfg and returns the measurements
// a profiler would record: time, average CPU power of the used cluster
// (dynamic + idle share of the used cores + uncore) and average memory
// power (background + access). This is the primitive used for offline
// synthetic-benchmark profiling (paper §4.1) and by motivation
// experiments that sweep the whole configuration space.
type Measurement struct {
	TimeSec   float64
	CPUPowerW float64
	MemPowerW float64
	StallFrac float64
	BWGBs     float64
}

// CPUEnergy returns TimeSec × CPUPowerW.
func (m Measurement) CPUEnergy() float64 { return m.TimeSec * m.CPUPowerW }

// MemEnergy returns TimeSec × MemPowerW.
func (m Measurement) MemEnergy() float64 { return m.TimeSec * m.MemPowerW }

// TotalEnergy returns CPU + memory energy in joules.
func (m Measurement) TotalEnergy() float64 { return m.CPUEnergy() + m.MemEnergy() }

// Measure evaluates one task standalone at cfg.
func (o *Oracle) Measure(d TaskDemand, cfg Config) Measurement {
	tb := o.TaskTime(d, cfg)
	dyn := o.CPUDynPower(d, cfg, tb.StallFrac, tb.BWGBs)
	idle := o.CPUIdlePower(cfg.TC, cfg.NC, cfg.FC)
	unc := o.ClusterUncorePower(cfg.TC)
	mem := o.MemBackgroundPower(cfg.FM) + o.MemAccessPower(d, cfg, tb.BWGBs)
	return Measurement{
		TimeSec:   tb.TotalSec,
		CPUPowerW: dyn + idle + unc,
		MemPowerW: mem,
		StallFrac: tb.StallFrac,
		BWGBs:     tb.BWGBs,
	}
}
