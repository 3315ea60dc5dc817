package platform

import (
	"fmt"

	"joss/internal/sim"
)

// CoreOccupancy describes what a busy core is contributing to the
// machine's instantaneous power draw. The runtime installs one of
// these per core whenever a task (or task partition) starts, and
// refreshes it when a frequency change rescales the task.
type CoreOccupancy struct {
	// Kernel is the running task's kernel name (jitter key).
	Kernel string
	// EffAct is the effective activity factor: task activity ×
	// (1 − 0.6·stallFrac) × measurement jitter, i.e. everything that
	// multiplies Cdyn·V²·f for this core.
	EffAct float64
	// MemAccessW is this core's share of the task's memory access
	// power (already including per-kernel row-hit and measurement
	// factors, via Oracle.MemAccessPower).
	MemAccessW float64
}

type coreState struct {
	cluster int
	busy    bool
	occ     CoreOccupancy
}

// ClusterState is the live DVFS state of one cluster.
type ClusterState struct {
	Spec    ClusterSpec
	FC      int // current frequency index
	pending int // requested frequency index while transitioning
	inFlite bool
	coreIDs []int

	// powerW caches ClusterPowerW, valid while powerFC == FC: a core
	// change sets powerFC to -1, and keying on FC keeps the cache right
	// when FC is written directly.
	powerW  float64
	powerFC int
}

// CoreIDs returns the global core IDs belonging to the cluster.
func (c *ClusterState) CoreIDs() []int { return c.coreIDs }

// Machine is the live platform: cluster frequencies, memory frequency,
// per-core occupancy and the energy meter. All state changes integrate
// power first, so energy accounting is exact between events.
type Machine struct {
	Eng  *sim.Engine
	O    *Oracle
	Spec Spec

	Clusters []*ClusterState
	fm       int
	fmPend   int
	fmFlite  bool

	cores []coreState

	// memW caches MemPowerW, valid while memFM == fm (-1 after a core
	// change), for the same reason as ClusterState.powerW.
	memW  float64
	memFM int

	// TransitionsCPU and TransitionsMem count completed frequency
	// changes (a request for the current frequency is a no-op and
	// does not transition).
	TransitionsCPU int
	TransitionsMem int

	// OnClusterFreqChange, if set, is called after a cluster's
	// frequency transition completes, so the runtime can rescale
	// in-flight tasks. Same for memory.
	OnClusterFreqChange func(cluster int)
	OnMemFreqChange     func()

	Meter *Meter

	clH clusterFreqHandler
	mmH memFreqHandler
}

// clusterFreqHandler and memFreqHandler let DVFS transition
// completions be scheduled without a closure allocation per request.
type clusterFreqHandler struct{ m *Machine }

func (h *clusterFreqHandler) OnEvent(cluster int, _ any) { h.m.completeClusterFreq(cluster) }

type memFreqHandler struct{ m *Machine }

func (h *memFreqHandler) OnEvent(int, any) { h.m.completeMemFreq() }

// NewMachine builds a machine over the given oracle, with all clusters
// and the memory at their highest frequencies (paper §6.1: frequencies
// are set to max before executing a benchmark).
func NewMachine(eng *sim.Engine, o *Oracle) *Machine {
	m := &Machine{Eng: eng, O: o, Spec: o.Spec, fm: MaxFM, memFM: -1}
	id := 0
	for ci, cs := range o.Spec.Clusters {
		st := &ClusterState{Spec: cs, FC: MaxFC, powerFC: -1}
		for k := 0; k < cs.NumCores; k++ {
			st.coreIDs = append(st.coreIDs, id)
			m.cores = append(m.cores, coreState{cluster: ci})
			id++
		}
		m.Clusters = append(m.Clusters, st)
	}
	m.clH.m = m
	m.mmH.m = m
	m.Meter = newMeter(m)
	return m
}

// Reset restores the machine to its just-constructed state so one
// Machine can serve an unbounded stream of runs: every cluster and the
// memory subsystem return to their highest frequencies with no
// transition in flight (paper §6.1: frequencies are set to max before
// executing a benchmark), all cores go idle, transition counters zero
// and the meter rewinds. The caller must reset the engine first —
// pending DVFS-completion and sensor events die with the old event
// queue, which is exactly what makes dropping the in-flight flags
// sound.
func (m *Machine) Reset() {
	for _, cl := range m.Clusters {
		cl.FC = MaxFC
		cl.pending = 0
		cl.inFlite = false
		cl.powerFC = -1
	}
	m.fm = MaxFM
	m.memFM = -1
	m.fmPend = 0
	m.fmFlite = false
	for i := range m.cores {
		m.cores[i].busy = false
		m.cores[i].occ = CoreOccupancy{}
	}
	m.TransitionsCPU = 0
	m.TransitionsMem = 0
	m.Meter.rewind()
}

// NumCores returns the total core count.
func (m *Machine) NumCores() int { return len(m.cores) }

// ClusterOfCore returns the cluster index of a core.
func (m *Machine) ClusterOfCore(core int) int { return m.cores[core].cluster }

// CoreType returns the core type of a core.
func (m *Machine) CoreType(core int) CoreType {
	return m.Spec.Clusters[m.cores[core].cluster].Type
}

// ClusterByType returns the cluster index for a core type (-1 if none).
func (m *Machine) ClusterByType(t CoreType) int { return m.Spec.ClusterOf(t) }

// FM returns the current memory frequency index.
func (m *Machine) FM() int { return m.fm }

// FC returns the current frequency index of a cluster.
func (m *Machine) FC(cluster int) int { return m.Clusters[cluster].FC }

// SetCoreBusy marks a core busy with the given occupancy. It
// integrates energy up to now first.
func (m *Machine) SetCoreBusy(core int, occ CoreOccupancy) {
	m.Meter.advance()
	m.invalidate(core)
	m.cores[core].busy = true
	m.cores[core].occ = occ
}

// SetCoreIdle marks a core idle.
func (m *Machine) SetCoreIdle(core int) {
	m.Meter.advance()
	m.invalidate(core)
	m.cores[core].busy = false
	m.cores[core].occ = CoreOccupancy{}
}

// UpdateOccupancy refreshes a busy core's occupancy (after a frequency
// change rescaled its task).
func (m *Machine) UpdateOccupancy(core int, occ CoreOccupancy) {
	if !m.cores[core].busy {
		panic(fmt.Sprintf("platform: UpdateOccupancy on idle core %d", core))
	}
	m.Meter.advance()
	m.invalidate(core)
	m.cores[core].occ = occ
}

// invalidate drops the cached power of a core's cluster and of the
// memory, whose access power sums over busy cores.
func (m *Machine) invalidate(core int) {
	m.Clusters[m.cores[core].cluster].powerFC = -1
	m.memFM = -1
}

// CoreBusy reports whether the core is currently executing.
func (m *Machine) CoreBusy(core int) bool { return m.cores[core].busy }

// BusyCores returns the number of busy cores across the machine.
func (m *Machine) BusyCores() int {
	n := 0
	for i := range m.cores {
		if m.cores[i].busy {
			n++
		}
	}
	return n
}

// BusyCoresInCluster returns the number of busy cores in one cluster.
func (m *Machine) BusyCoresInCluster(cluster int) int {
	n := 0
	for _, id := range m.Clusters[cluster].coreIDs {
		if m.cores[id].busy {
			n++
		}
	}
	return n
}

// RequestClusterFreq asks the cluster's DVFS controller for frequency
// index fc. The change takes effect after the platform's transition
// latency; a request arriving during a transition supersedes the
// pending target (requests are serialized by the controller, modelling
// the paper's "DVFS serialization" concern). Requesting the current
// frequency with no transition in flight is a no-op.
func (m *Machine) RequestClusterFreq(cluster, fc int) {
	if fc < 0 || fc >= len(CPUFreqsGHz) {
		panic(fmt.Sprintf("platform: bad CPU frequency index %d", fc))
	}
	cl := m.Clusters[cluster]
	if cl.inFlite {
		cl.pending = fc
		return
	}
	if cl.FC == fc {
		return
	}
	cl.pending = fc
	cl.inFlite = true
	m.Eng.AfterEvent(m.Spec.CPUTransitionSec, &m.clH, cluster, nil)
}

func (m *Machine) completeClusterFreq(cluster int) {
	cl := m.Clusters[cluster]
	m.Meter.advance()
	changed := cl.FC != cl.pending
	cl.FC = cl.pending
	cl.inFlite = false
	if changed {
		m.TransitionsCPU++
		if m.OnClusterFreqChange != nil {
			m.OnClusterFreqChange(cluster)
		}
	}
}

// RequestMemFreq asks the memory DVFS controller for frequency index
// fm, with the same transition semantics as RequestClusterFreq.
func (m *Machine) RequestMemFreq(fm int) {
	if fm < 0 || fm >= len(MemFreqsGHz) {
		panic(fmt.Sprintf("platform: bad memory frequency index %d", fm))
	}
	if m.fmFlite {
		m.fmPend = fm
		return
	}
	if m.fm == fm {
		return
	}
	m.fmPend = fm
	m.fmFlite = true
	m.Eng.AfterEvent(m.Spec.MemTransitionSec, &m.mmH, 0, nil)
}

func (m *Machine) completeMemFreq() {
	m.Meter.advance()
	changed := m.fm != m.fmPend
	m.fm = m.fmPend
	m.fmFlite = false
	if changed {
		m.TransitionsMem++
		if m.OnMemFreqChange != nil {
			m.OnMemFreqChange()
		}
	}
}

// ClusterPowerW returns the instantaneous power of one cluster:
// uncore + per-core leakage + idle-or-busy dynamic power at the
// cluster's current frequency. The value is cached until the
// cluster's cores or frequency change.
func (m *Machine) ClusterPowerW(cluster int) float64 {
	cl := m.Clusters[cluster]
	if cl.powerFC != cl.FC {
		cl.powerW = m.clusterPowerW(cl)
		cl.powerFC = cl.FC
	}
	return cl.powerW
}

// clusterPowerW computes ClusterPowerW from scratch.
func (m *Machine) clusterPowerW(cl *ClusterState) float64 {
	cp := m.O.Core[cl.Spec.Type]
	f := CPUFreqsGHz[cl.FC]
	v := cpuVolt[cl.FC]
	p := cp.UncoreW
	for _, id := range cl.coreIDs {
		p += cp.LeakW * v
		if m.cores[id].busy {
			p += cp.CdynW * f * v * v * m.cores[id].occ.EffAct
		} else {
			p += cp.IdleActW * f * v * v
		}
	}
	return p
}

// CPUPowerW returns the instantaneous power of the whole CPU rail.
func (m *Machine) CPUPowerW() float64 {
	p := 0.0
	for ci := range m.Clusters {
		p += m.ClusterPowerW(ci)
	}
	return p
}

// MemPowerW returns the instantaneous memory-subsystem power:
// background at the current memory frequency plus the access power
// drawn by busy cores. The value is cached until a core or the memory
// frequency changes.
func (m *Machine) MemPowerW() float64 {
	if m.memFM != m.fm {
		m.memW = m.memPowerW()
		m.memFM = m.fm
	}
	return m.memW
}

// memPowerW computes MemPowerW from scratch.
func (m *Machine) memPowerW() float64 {
	acc := 0.0
	for i := range m.cores {
		if m.cores[i].busy {
			acc += m.cores[i].occ.MemAccessW
		}
	}
	return m.O.MemBackgroundPower(m.fm) + acc
}

// TotalPowerW returns CPU + memory instantaneous power.
func (m *Machine) TotalPowerW() float64 { return m.CPUPowerW() + m.MemPowerW() }
