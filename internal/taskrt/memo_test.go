package taskrt

import (
	"fmt"
	"math"
	"testing"

	"joss/internal/dag"
	"joss/internal/platform"
	"joss/internal/workloads"
)

// variedSched spreads tasks over core types, widths and frequencies by
// task ID, so one run fills many memo cells; coordinated (not exact)
// frequency requests add the in-between configs of retiming.
type variedSched struct{ fixedSched }

func (s *variedSched) Decide(t *dag.Task) Decision {
	tc := platform.CoreType(t.ID % 2)
	nc := 1 + t.ID/2%2
	if tc == platform.A57 {
		nc = 1 << (t.ID / 2 % 3)
	}
	return Decision{
		Placement: platform.Placement{TC: tc, NC: nc},
		SetFreq:   true,
		FC:        t.ID % platform.NumCPUFreqs,
		FM:        t.ID / 3 % platform.NumMemFreqs,
	}
}

// scaledGraph builds two kernels' worth of tasks in short dependency
// chains: most carry one of 60 distinct DemandScales, the rest sit at
// the base demand under each spelling the predicate accepts (0, 1 and
// a negative scale, which EffectiveDemand ignores).
func scaledGraph(name string) *dag.Graph {
	g := dag.New(name)
	ks := []*dag.Kernel{
		g.AddKernel(name+".a", demand(6e6, 8e5)),
		g.AddKernel(name+".b", demand(2e6, 3e6)),
	}
	var prev [3]*dag.Task
	for i := 0; i < 240; i++ {
		var t *dag.Task
		if p := prev[i%3]; p != nil {
			t = g.AddTask(ks[i%2], p)
		} else {
			t = g.AddTask(ks[i%2])
		}
		switch i % 8 {
		case 0:
			t.DemandScale = 0
		case 1:
			t.DemandScale = 1
		case 2:
			t.DemandScale = -2
		default:
			t.DemandScale = 0.5 + float64(i%60)/40
		}
		prev[i%3] = t
	}
	return g
}

func reportBytes(r Report) string { return fmt.Sprintf("%#v", r) }

// configAt inverts oracleAt's exact-NC grid index.
func (rt *Runtime) configAt(idx int) platform.Config {
	fm := idx % platform.NumMemFreqs
	idx /= platform.NumMemFreqs
	fc := idx % platform.NumCPUFreqs
	idx /= platform.NumCPUFreqs
	return platform.Config{
		TC: platform.CoreType(idx / (rt.maxNC + 1)),
		NC: idx % (rt.maxNC + 1),
		FC: fc,
		FM: fm,
	}
}

func sameAnswerBits(a, b oracleAnswer) bool {
	fs := func(x oracleAnswer) []float64 {
		return []float64{x.tb.TotalSec, x.tb.CompSec, x.tb.StallSec, x.tb.StallFrac,
			x.tb.BWGBs, x.occ.EffAct, x.occ.MemAccessW}
	}
	af, bf := fs(a), fs(b)
	for i := range af {
		if math.Float64bits(af[i]) != math.Float64bits(bf[i]) {
			return false
		}
	}
	return a.occ.Kernel == b.occ.Kernel && a.valid == b.valid
}

// TestMemoMatchesOracle checks the oracle memo end to end and cell by
// cell: a runtime that serves a heavily scaled graph from its memo —
// again after Reset, and after another graph recycled its kernel slots
// — reproduces a fresh runtime's report byte for byte, and every
// memoized answer equals the oracle's fresh answer to the last bit.
func TestMemoMatchesOracle(t *testing.T) {
	o := platform.DefaultOracle()
	g := scaledGraph("memo")
	scales := map[float64]bool{}
	for _, task := range g.Tasks {
		if s := task.DemandScale; s > 0 && s != 1 {
			scales[s] = true
		}
	}
	if len(scales) < 50 {
		t.Fatalf("graph has %d distinct scales, want >= 50", len(scales))
	}
	want := reportBytes(New(o, &variedSched{}, DefaultOptions()).Run(g))

	rt := New(o, &variedSched{}, DefaultOptions())
	if got := reportBytes(rt.Run(g)); got != want {
		t.Fatalf("first run differs from a fresh runtime:\n%s\n%s", got, want)
	}
	rt.Sched = &variedSched{}
	rt.Reset(g)
	if got := reportBytes(rt.Run(g)); got != want {
		t.Fatalf("memo-served rerun differs from a fresh runtime:\n%s\n%s", got, want)
	}
	other := scaledGraph("other")
	rt.Sched = &variedSched{}
	rt.Reset(other)
	rt.Run(other)
	rt.Sched = &variedSched{}
	rt.Reset(g)
	if got := reportBytes(rt.Run(g)); got != want {
		t.Fatalf("rerun after slot recycling differs from a fresh runtime:\n%s\n%s", got, want)
	}

	nScaled, nBase := 0, 0
	for i := range rt.kcache {
		kc := &rt.kcache[i]
		k := &dag.Kernel{Name: kc.name, Demand: kc.demand}
		fresh := func(scale float64, cfg platform.Config) oracleAnswer {
			return rt.answer(&dag.Task{Kernel: k, DemandScale: scale}, cfg)
		}
		for key, a := range kc.scaled {
			cfg := rt.configAt(key.cfg)
			if want := fresh(key.scale, cfg); !sameAnswerBits(a, want) {
				t.Fatalf("kernel %s scale %v at %+v: memo %+v, oracle %+v", kc.name, key.scale, cfg, a, want)
			}
			nScaled++
		}
		for idx, a := range kc.base {
			if !a.valid {
				continue
			}
			cfg := rt.configAt(idx)
			if want := fresh(0, cfg); !sameAnswerBits(a, want) {
				t.Fatalf("kernel %s base at %+v: memo %+v, oracle %+v", kc.name, cfg, a, want)
			}
			nBase++
		}
	}
	if nScaled < len(scales) || nBase == 0 {
		t.Fatalf("memo holds %d scaled and %d base answers, want >= %d and > 0", nScaled, nBase, len(scales))
	}
}

// TestBISlabsBoundedByKernels pins the memo's footprint on the
// Biomarker workload, whose ~300 distinct task scales once cost a
// dense slab each: only base demands get slabs, so the slabs a runtime
// holds — live plus pooled — never outnumber the graph's kernels.
func TestBISlabsBoundedByKernels(t *testing.T) {
	g := workloads.BI(0.05)
	rt := New(platform.DefaultOracle(), &variedSched{}, DefaultOptions())
	for run := 0; run < 2; run++ {
		if run > 0 {
			rt.Sched = &variedSched{}
			rt.Reset(g)
		}
		rt.Run(g)
		slabs := len(rt.slabPool)
		for i := range rt.kcache {
			if rt.kcache[i].base != nil {
				slabs++
			}
		}
		if slabs > len(g.Kernels) {
			t.Fatalf("run %d: runtime holds %d dense slabs for %d kernels", run, slabs, len(g.Kernels))
		}
	}
}
