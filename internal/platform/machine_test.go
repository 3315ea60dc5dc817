package platform

import (
	"math"
	"math/rand"
	"testing"

	"joss/internal/sim"
)

func newTestMachine() (*sim.Engine, *Machine) {
	eng := sim.New()
	o := DefaultOracle()
	return eng, NewMachine(eng, o)
}

func TestMachineInitialState(t *testing.T) {
	_, m := newTestMachine()
	if m.NumCores() != 6 {
		t.Fatalf("NumCores = %d, want 6", m.NumCores())
	}
	if m.FM() != MaxFM {
		t.Fatalf("initial FM = %d, want max", m.FM())
	}
	for ci := range m.Clusters {
		if m.FC(ci) != MaxFC {
			t.Fatalf("cluster %d initial FC = %d, want max", ci, m.FC(ci))
		}
	}
	if m.CoreType(0) != Denver || m.CoreType(2) != A57 {
		t.Fatal("core type layout wrong (want Denver cores first)")
	}
	if m.BusyCores() != 0 {
		t.Fatal("machine born busy")
	}
}

func TestIdleEnergyIntegration(t *testing.T) {
	eng, m := newTestMachine()
	m.Meter.Reset()
	p0cpu, p0mem := m.CPUPowerW(), m.MemPowerW()
	eng.RunUntil(2.0)
	e := m.Meter.Exact()
	if math.Abs(e.CPUJ-p0cpu*2) > 1e-9 {
		t.Fatalf("idle CPU energy = %.6g, want %.6g", e.CPUJ, p0cpu*2)
	}
	if math.Abs(e.MemJ-p0mem*2) > 1e-9 {
		t.Fatalf("idle mem energy = %.6g, want %.6g", e.MemJ, p0mem*2)
	}
}

func TestBusyCoreRaisesPower(t *testing.T) {
	_, m := newTestMachine()
	idle := m.CPUPowerW()
	m.SetCoreBusy(0, CoreOccupancy{Kernel: "k", EffAct: 1, MemAccessW: 0.09})
	if m.CPUPowerW() <= idle {
		t.Fatal("busy core did not raise CPU power")
	}
	memIdle := m.O.MemBackgroundPower(m.FM())
	if got := m.MemPowerW(); math.Abs(got-(memIdle+0.09)) > 1e-12 {
		t.Fatalf("mem power = %.6g, want bg+0.09", got)
	}
	m.SetCoreIdle(0)
	if math.Abs(m.CPUPowerW()-idle) > 1e-12 {
		t.Fatal("power did not return to idle after SetCoreIdle")
	}
}

func TestEnergySplitAcrossBusyInterval(t *testing.T) {
	eng, m := newTestMachine()
	m.Meter.Reset()
	pIdle := m.CPUPowerW()
	eng.At(1, func() { m.SetCoreBusy(0, CoreOccupancy{Kernel: "k", EffAct: 1}) })
	var pBusy float64
	eng.At(1.5, func() { pBusy = m.CPUPowerW() })
	eng.At(3, func() { m.SetCoreIdle(0) })
	eng.RunUntil(4)
	e := m.Meter.Exact()
	want := pIdle*1 + pBusy*2 + pIdle*1
	if math.Abs(e.CPUJ-want) > 1e-9 {
		t.Fatalf("CPU energy = %.9g, want %.9g", e.CPUJ, want)
	}
}

func TestClusterFreqTransition(t *testing.T) {
	eng, m := newTestMachine()
	m.RequestClusterFreq(0, 1)
	if m.FC(0) != MaxFC {
		t.Fatal("frequency changed before transition latency")
	}
	fired := 0
	m.OnClusterFreqChange = func(cluster int) {
		if cluster != 0 {
			t.Fatalf("callback cluster = %d, want 0", cluster)
		}
		fired++
	}
	eng.Run()
	if m.FC(0) != 1 {
		t.Fatalf("FC after transition = %d, want 1", m.FC(0))
	}
	if fired != 1 {
		t.Fatalf("OnClusterFreqChange fired %d times, want 1", fired)
	}
	if eng.Now() < m.Spec.CPUTransitionSec {
		t.Fatal("transition completed instantly")
	}
}

func TestFreqRequestSupersededDuringTransition(t *testing.T) {
	eng, m := newTestMachine()
	m.RequestClusterFreq(0, 1)
	m.RequestClusterFreq(0, 3) // supersedes
	eng.Run()
	if m.FC(0) != 3 {
		t.Fatalf("FC = %d, want 3 (latest request wins)", m.FC(0))
	}
}

func TestSameFreqRequestNoop(t *testing.T) {
	eng, m := newTestMachine()
	m.RequestClusterFreq(1, MaxFC)
	if eng.Pending() != 0 {
		t.Fatal("no-op frequency request scheduled a transition")
	}
}

func TestMemFreqTransition(t *testing.T) {
	eng, m := newTestMachine()
	fired := false
	m.OnMemFreqChange = func() { fired = true }
	m.RequestMemFreq(0)
	eng.Run()
	if m.FM() != 0 || !fired {
		t.Fatalf("FM = %d fired=%v, want 0,true", m.FM(), fired)
	}
}

func TestLowerFreqLowersIdlePower(t *testing.T) {
	_, m := newTestMachine()
	p0 := m.ClusterPowerW(1)
	m.Clusters[1].FC = 0
	if m.ClusterPowerW(1) >= p0 {
		t.Fatal("lowering cluster frequency did not lower idle power")
	}
	pm0 := m.MemPowerW()
	m.fm = 0
	if m.MemPowerW() >= pm0 {
		t.Fatal("lowering memory frequency did not lower memory power")
	}
}

func TestSensorApproximatesExact(t *testing.T) {
	eng, m := newTestMachine()
	m.Meter.Reset()
	m.Meter.StartSensor()
	// Toggle a core on and off on a period incommensurate with 5 ms.
	busy := false
	var toggle func()
	toggle = func() {
		if busy {
			m.SetCoreIdle(3)
		} else {
			m.SetCoreBusy(3, CoreOccupancy{Kernel: "k", EffAct: 0.9, MemAccessW: 0.18})
		}
		busy = !busy
		if eng.Now() < 3.0 {
			eng.After(0.0137, toggle)
		}
	}
	eng.After(0.0137, toggle)
	eng.RunUntil(3.0)
	m.Meter.StopSensor()
	exact := m.Meter.Exact()
	sensed, n := m.Meter.Sensor()
	if n < 500 {
		t.Fatalf("sensor took %d samples in 3 s, want ~600", n)
	}
	relCPU := math.Abs(sensed.CPUJ/exact.CPUJ - 1)
	relMem := math.Abs(sensed.MemJ/exact.MemJ - 1)
	if relCPU > 0.05 || relMem > 0.05 {
		t.Fatalf("sensor error CPU %.3f mem %.3f, want <5%%", relCPU, relMem)
	}
}

func TestUpdateOccupancyPanicsOnIdleCore(t *testing.T) {
	_, m := newTestMachine()
	defer func() {
		if recover() == nil {
			t.Fatal("UpdateOccupancy on idle core did not panic")
		}
	}()
	m.UpdateOccupancy(0, CoreOccupancy{})
}

func TestBusyCountsPerCluster(t *testing.T) {
	_, m := newTestMachine()
	m.SetCoreBusy(0, CoreOccupancy{EffAct: 1})
	m.SetCoreBusy(4, CoreOccupancy{EffAct: 1})
	m.SetCoreBusy(5, CoreOccupancy{EffAct: 1})
	if m.BusyCores() != 3 {
		t.Fatalf("BusyCores = %d, want 3", m.BusyCores())
	}
	if m.BusyCoresInCluster(0) != 1 || m.BusyCoresInCluster(1) != 2 {
		t.Fatalf("per-cluster busy = %d,%d want 1,2",
			m.BusyCoresInCluster(0), m.BusyCoresInCluster(1))
	}
}

func TestMeterResetClearsAccounts(t *testing.T) {
	eng, m := newTestMachine()
	eng.RunUntil(1)
	m.Meter.Reset()
	e := m.Meter.Exact()
	if e.CPUJ != 0 || e.MemJ != 0 {
		t.Fatalf("after Reset: %+v, want zero", e)
	}
	if m.Meter.Elapsed() != 0 {
		t.Fatalf("Elapsed after reset = %v, want 0", m.Meter.Elapsed())
	}
}

// TestCachedPowerMatchesRecomputation drives a machine through random
// busy/idle/occupancy changes, DVFS transitions, direct FC/fm writes,
// meter samples and Resets, and asserts after every step that the
// cached CPUPowerW and MemPowerW equal a from-scratch recomputation
// bit for bit.
func TestCachedPowerMatchesRecomputation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	eng, m := newTestMachine()
	m.Meter.StartSensor()
	occ := func() CoreOccupancy {
		return CoreOccupancy{EffAct: rng.Float64(), MemAccessW: rng.Float64() * 0.3}
	}
	for step := 0; step < 5000; step++ {
		core := rng.Intn(m.NumCores())
		switch rng.Intn(9) {
		case 0, 1:
			m.SetCoreBusy(core, occ())
		case 2, 3:
			m.SetCoreIdle(core)
		case 4:
			if m.CoreBusy(core) {
				m.UpdateOccupancy(core, occ())
			}
		case 5:
			m.RequestClusterFreq(rng.Intn(len(m.Clusters)), rng.Intn(NumCPUFreqs))
			m.RequestMemFreq(rng.Intn(NumMemFreqs))
		case 6:
			m.Clusters[rng.Intn(len(m.Clusters))].FC = rng.Intn(NumCPUFreqs)
			m.fm = rng.Intn(NumMemFreqs)
		case 7:
			eng.RunUntil(eng.Now() + rng.Float64()*2e-4)
		default:
			if rng.Intn(50) == 0 {
				eng.Reset()
				m.Reset()
				m.Meter.StartSensor()
			}
		}
		cpu := 0.0
		for _, cl := range m.Clusters {
			cpu += m.clusterPowerW(cl)
		}
		if got := m.CPUPowerW(); math.Float64bits(got) != math.Float64bits(cpu) {
			t.Fatalf("step %d: cached CPUPowerW = %v, recomputed %v", step, got, cpu)
		}
		if got, want := m.MemPowerW(), m.memPowerW(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: cached MemPowerW = %v, recomputed %v", step, got, want)
		}
	}
}
