// Package workloads builds the ten benchmarks of the paper's Table 1
// as task DAGs: Heat Diffusion (HD), Dot Product (DP), Fibonacci (FB),
// Darknet-VGG-16 (VG), Biomarker Infection (BI), Alya (AL), Sparse LU
// (SLU), Matrix Multiplication (MM), Matrix Copy (MC) and Stencil (ST).
//
// Each builder reproduces the benchmark's DAG structure (kernel mix,
// dependency shape, paper task counts) and gives its kernels per-task
// compute/memory demands calibrated to the paper's qualitative
// behaviour (MM compute-bound, MC streaming memory-bound, SLU's BMOD
// ≈1% memory-bound on two Denver cores, FB fine-grained, …).
//
// A scale parameter multiplies task counts so full experiment sweeps
// finish quickly; scale=1 restores paper-sized DAGs. Task *sizes* are
// unaffected by scale.
//
// Every builder returns a sealed graph (dag.Graph.Seal): its successor
// lists and base state are built and it is read-only from then on, so
// one build can back concurrent runs.
package workloads

import (
	"fmt"
	"math"

	"joss/internal/dag"
	"joss/internal/platform"
)

// DefaultScale is the task-count scale used by the experiment harness.
const DefaultScale = 0.05

func scaled(n int, scale float64, minimum int) int {
	v := int(math.Round(float64(n) * scale))
	if v < minimum {
		v = minimum
	}
	return v
}

// HDSize selects the Heat Diffusion problem size of Table 1.
type HDSize int

// Heat diffusion problem sizes (grid resolution 2048 / 8192 / 16384).
const (
	HDSmall HDSize = iota
	HDBig
	HDHuge
)

// HD builds Heat Diffusion: an iterative Jacobi stencil on a 2D grid
// with two kernels, Copy and Jacobi. Per Table 1 the smaller the
// resolution, the more (and finer) tasks: 320032 (small) / 32032
// (big) / 16032 (huge).
func HD(size HDSize, scale float64) *dag.Graph { return hdInto(nil, size, scale) }

func hdInto(reuse *dag.Graph, size HDSize, scale float64) *dag.Graph {
	const blocks = 16
	var name string
	var iters, points int
	switch size {
	case HDSmall:
		name, iters, points = "HT_Small", 10001, 2048*2048/blocks
	case HDBig:
		name, iters, points = "HT_Big", 1001, 8192*8192/blocks
	default:
		name, iters, points = "HT_Huge", 501, 16384*16384/blocks
	}
	iters = scaled(iters, scale, 4)

	g := dag.Renew(reuse, name)
	jac := g.AddKernel("Jacobi", platform.TaskDemand{
		Ops:      6 * float64(points),
		Bytes:    2.2 * 8 * float64(points),
		ParEff:   0.92,
		Activity: 0.8,
		RowHit:   0.85,
	})
	cp := g.AddKernel("Copy", platform.TaskDemand{
		Ops:      0.25 * float64(points),
		Bytes:    2 * 8 * float64(points),
		ParEff:   0.9,
		Activity: 0.45,
		RowHit:   0.95,
	})
	// Each iteration: Jacobi over all blocks (each reads its block
	// and the neighbours from the previous Copy), then Copy back.
	var prevCopy [blocks]*dag.Task
	var nb [3]*dag.Task
	for it := 0; it < iters; it++ {
		var jrow [blocks]*dag.Task
		for b := 0; b < blocks; b++ {
			if it == 0 {
				jrow[b] = g.AddTask(jac)
			} else {
				jrow[b] = g.AddTask(jac, stencil3(&nb, prevCopy[:], b)...)
			}
		}
		for b := 0; b < blocks; b++ {
			prevCopy[b] = g.AddTask(cp, jrow[b])
		}
	}
	return g.Seal()
}

// DP builds Dot Product: 100 iterations over a blocked vector pair
// with a per-iteration reduction (Table 1: VectorSize 6.4M, BlockSize
// 32000, 20200 tasks).
func DP(scale float64) *dag.Graph { return dpInto(nil, scale) }

func dpInto(reuse *dag.Graph, scale float64) *dag.Graph {
	const blocksPerIter = 200
	iters := scaled(100, scale, 2)
	g := dag.Renew(reuse, "DP")
	work := g.AddKernel("dotblock", platform.TaskDemand{
		Ops:      2 * 32000,
		Bytes:    2 * 32000 * 8,
		ParEff:   0.9,
		Activity: 0.6,
		RowHit:   0.95,
	})
	reduce := g.AddKernel("reduce", platform.TaskDemand{
		Ops:      2 * blocksPerIter,
		Bytes:    blocksPerIter * 8,
		ParEff:   0.5,
		Activity: 0.5,
		RowHit:   0.9,
	})
	var barrier *dag.Task
	for it := 0; it < iters; it++ {
		blocksT := make([]*dag.Task, blocksPerIter)
		for b := range blocksT {
			if barrier == nil {
				blocksT[b] = g.AddTask(work)
			} else {
				blocksT[b] = g.AddTask(work, barrier)
			}
		}
		barrier = g.AddTask(reduce, blocksT...)
	}
	return g.Seal()
}

// FB builds Fibonacci by recursion (Table 1: term 55, grain size 34,
// 57314 tasks): a binary spawn tree down to the grain with a combine
// task per internal node. Its tasks are fine-grained — the workload
// that exercises the paper's task-coarsening path (§5.3).
func FB(scale float64) *dag.Graph { return fbInto(nil, scale) }

func fbInto(reuse *dag.Graph, scale float64) *dag.Graph {
	term, grain := 55, 34
	if scale < 1 {
		// Shrink the term so the task count scales ≈ linearly
		// (subtree sizes grow by the golden ratio per term).
		term += int(math.Round(math.Log(scale) / math.Log(1.6180339887)))
		if term < grain+2 {
			term = grain + 2
		}
	}
	g := dag.Renew(reuse, "FB")
	leaf := g.AddKernel("fib_leaf", platform.TaskDemand{
		Ops:      45e3,
		Bytes:    4e3,
		ParEff:   0.4,
		Activity: 0.75,
		RowHit:   0.8,
	})
	comb := g.AddKernel("fib_combine", platform.TaskDemand{
		Ops:      2e3,
		Bytes:    0.6e3,
		ParEff:   0.3,
		Activity: 0.5,
		RowHit:   0.8,
	})
	var build func(n int) *dag.Task
	build = func(n int) *dag.Task {
		if n <= grain {
			return g.AddTask(leaf)
		}
		a := build(n - 1)
		b := build(n - 2)
		return g.AddTask(comb, a, b)
	}
	build(term)
	return g.Seal()
}

// vggLayers describes the fork width and kernel behaviour of each
// VGG-16 layer in the fork-join DAG (Table 1: 768×576 RGB image,
// block size 64, 5090 tasks over 10 iterations).
var vggLayers = []struct {
	name   string
	blocks int
	conv   bool
}{
	{"conv1_1", 64, true}, {"conv1_2", 64, true},
	{"conv2_1", 48, true}, {"conv2_2", 48, true},
	{"conv3_1", 32, true}, {"conv3_2", 32, true}, {"conv3_3", 32, true},
	{"conv4_1", 24, true}, {"conv4_2", 24, true}, {"conv4_3", 24, true},
	{"conv5_1", 16, true}, {"conv5_2", 16, true}, {"conv5_3", 16, true},
	{"fc6", 32, false}, {"fc7", 16, false}, {"fc8", 5, false},
}

// VG builds the Darknet VGG-16 CNN inference DAG: 16 layers, each a
// fork of per-block kernel tasks joined by a layer barrier, iterated
// 10 times.
func VG(scale float64) *dag.Graph { return vgInto(nil, scale) }

func vgInto(reuse *dag.Graph, scale float64) *dag.Graph {
	iters := scaled(10, scale, 1)
	g := dag.Renew(reuse, "VG")
	var kernels []*dag.Kernel
	for _, l := range vggLayers {
		d := platform.TaskDemand{
			// Convolutions are GEMM-like and compute-bound; FC layers
			// stream large weight matrices and are memory-bound.
			Ops:      24e6,
			Bytes:    0.9e6,
			ParEff:   0.95,
			Activity: 1.0,
			RowHit:   0.85,
		}
		if !l.conv {
			d.Ops = 4e6
			d.Bytes = 5e6
			d.Activity = 0.6
			d.RowHit = 0.9
		}
		kernels = append(kernels, g.AddKernel(l.name, d))
	}
	join := g.AddKernel("layer_join", platform.TaskDemand{
		Ops: 0.1e6, Bytes: 0.1e6, ParEff: 0.4, Activity: 0.5, RowHit: 0.8,
	})
	var barrier *dag.Task
	for it := 0; it < iters; it++ {
		for li, l := range vggLayers {
			tasks := make([]*dag.Task, l.blocks)
			for b := range tasks {
				if barrier == nil {
					tasks[b] = g.AddTask(kernels[li])
				} else {
					tasks[b] = g.AddTask(kernels[li], barrier)
				}
			}
			barrier = g.AddTask(join, tasks...)
		}
	}
	return g.Seal()
}

// BI builds the Biomarker Infection medical use case: computing
// biomarker combinations to predict symptoms (Table 1: sample size 2,
// 6217 tasks). The combinations are independent and heterogeneous; a
// final aggregation joins them.
func BI(scale float64) *dag.Graph { return biInto(nil, scale) }

func biInto(reuse *dag.Graph, scale float64) *dag.Graph {
	n := scaled(6216, scale, 12)
	g := dag.Renew(reuse, "BI")
	small := g.AddKernel("combo_small", platform.TaskDemand{
		Ops: 2e6, Bytes: 0.4e6, ParEff: 0.6, Activity: 0.8, RowHit: 0.6,
	})
	med := g.AddKernel("combo_med", platform.TaskDemand{
		Ops: 8e6, Bytes: 1.2e6, ParEff: 0.7, Activity: 0.85, RowHit: 0.6,
	})
	large := g.AddKernel("combo_large", platform.TaskDemand{
		Ops: 24e6, Bytes: 2.8e6, ParEff: 0.8, Activity: 0.9, RowHit: 0.6,
	})
	agg := g.AddKernel("aggregate", platform.TaskDemand{
		Ops: 1e6, Bytes: 2e6, ParEff: 0.5, Activity: 0.5, RowHit: 0.85,
	})
	var all []*dag.Task
	for i := 0; i < n; i++ {
		var t *dag.Task
		switch i % 4 {
		case 0, 1:
			t = g.AddTask(small)
		case 2:
			t = g.AddTask(med)
		default:
			t = g.AddTask(large)
		}
		// Combination sizes vary within each class (±30%,
		// deterministic): the heterogeneity the use case exhibits.
		t.DemandScale = 0.7 + 0.6*float64((i*2654435761)%1000)/1000
		all = append(all, t)
	}
	g.AddTask(agg, all...)
	return g.Seal()
}

// AL builds Alya, the computational-mechanics PDE solver parallelised
// by mesh partitioning (Table 1: 200K CSR non-zeros, 47840 tasks):
// iterations of per-partition sparse assembly/solve tasks with halo
// dependencies on neighbouring partitions. Sparse matrix access is
// irregular — low row-buffer locality.
func AL(scale float64) *dag.Graph { return alInto(nil, scale) }

func alInto(reuse *dag.Graph, scale float64) *dag.Graph {
	const parts = 64
	iters := scaled(747, scale, 4)
	g := dag.Renew(reuse, "AY")
	spmv := g.AddKernel("mesh_spmv", platform.TaskDemand{
		Ops:      2 * 200e3 / parts * 10,
		Bytes:    200e3 / parts * 20 * 8,
		ParEff:   0.85,
		Activity: 0.65,
		RowHit:   0.35,
	})
	var prev [parts]*dag.Task
	var nb [3]*dag.Task
	for it := 0; it < iters; it++ {
		var cur [parts]*dag.Task
		for p := 0; p < parts; p++ {
			if it == 0 {
				cur[p] = g.AddTask(spmv)
			} else {
				cur[p] = g.AddTask(spmv, stencil3(&nb, prev[:], p)...)
			}
		}
		prev = cur
	}
	return g.Seal()
}

// stencil3 returns the 3-point neighbour stencil row[i-1], row[i],
// row[i+1] (the in-range ones, in that order) as a slice of the
// caller-owned buf, so wiring a stencil iteration allocates nothing.
func stencil3(buf *[3]*dag.Task, row []*dag.Task, i int) []*dag.Task {
	return append(buf[:0], row[max(i-1, 0):min(i+2, len(row))]...)
}

// SLU builds Sparse LU factorisation over an N×N block matrix with the
// four kernels of Table 1: LU0, FWD, BDIV and BMOD. N=32 reproduces
// the paper's totals: 11440 tasks of which BMOD is 91% (§7.1).
func SLU(scale float64) *dag.Graph { return sluInto(nil, scale) }

func sluInto(reuse *dag.Graph, scale float64) *dag.Graph {
	n := 32
	if scale < 1 {
		n = int(math.Round(32 * math.Cbrt(scale)))
		if n < 6 {
			n = 6
		}
	}
	g := dag.Renew(reuse, "SLU")
	lu0 := g.AddKernel("LU0", platform.TaskDemand{
		Ops: 22e6, Bytes: 1.4e6, ParEff: 0.7, Activity: 0.9, RowHit: 0.7,
	})
	fwd := g.AddKernel("FWD", platform.TaskDemand{
		Ops: 17e6, Bytes: 1.6e6, ParEff: 0.85, Activity: 0.9, RowHit: 0.7,
	})
	bdiv := g.AddKernel("BDIV", platform.TaskDemand{
		Ops: 17e6, Bytes: 1.6e6, ParEff: 0.85, Activity: 0.9, RowHit: 0.7,
	})
	// BMOD is a dense block GEMM: compute-intensive, cache-resident
	// blocks, linear moldable speedup (§7.1: BMOD achieves linear
	// speedup on two Denver cores with MB ≈ 1%).
	bmod := g.AddKernel("BMOD", platform.TaskDemand{
		Ops: 34e6, Bytes: 1.1e6, ParEff: 1.0, Activity: 1.0, RowHit: 0.8,
	})

	// last[i][j] is the last task that wrote block (i,j).
	last := make([][]*dag.Task, n)
	for i := range last {
		last[i] = make([]*dag.Task, n)
	}
	// dep filters nil writers into a reused scratch buffer; AddTask
	// consumes the slice immediately, so reuse is safe and the builder
	// avoids one allocation per task.
	depScratch := make([]*dag.Task, 0, 3)
	dep := func(ts ...*dag.Task) []*dag.Task {
		out := depScratch[:0]
		for _, t := range ts {
			if t != nil {
				out = append(out, t)
			}
		}
		return out
	}
	for k := 0; k < n; k++ {
		last[k][k] = g.AddTask(lu0, dep(last[k][k])...)
		for j := k + 1; j < n; j++ {
			last[k][j] = g.AddTask(fwd, dep(last[k][k], last[k][j])...)
		}
		for i := k + 1; i < n; i++ {
			last[i][k] = g.AddTask(bdiv, dep(last[k][k], last[i][k])...)
		}
		for i := k + 1; i < n; i++ {
			for j := k + 1; j < n; j++ {
				last[i][j] = g.AddTask(bmod, dep(last[i][k], last[k][j], last[i][j])...)
			}
		}
	}
	return g.Seal()
}

// MM builds the synthetic Matrix Multiplication benchmark: independent
// chains of tile-GEMM tasks with configurable DAG parallelism
// (Table 1: tile 256 → 10000 tasks, tile 512 → 2000 tasks).
func MM(tile, dop int, scale float64) *dag.Graph { return mmInto(nil, tile, dop, scale) }

func mmInto(reuse *dag.Graph, tile, dop int, scale float64) *dag.Graph {
	total := 10000
	d := platform.TaskDemand{
		Ops: 2 * 256 * 256 * 256, Bytes: 0.9e6, ParEff: 0.95, Activity: 1.0, RowHit: 0.9,
	}
	if tile == 512 {
		total = 2000
		d.Ops = 2 * 512 * 512 * 512
		d.Bytes = 3.5e6
	}
	total = scaled(total, scale, dop*2)
	return buildChains(reuse, fmt.Sprintf("MM_%d_dop%d", tile, dop), "mm_tile", d, dop, total)
}

// MC builds the synthetic Matrix Copy benchmark: streaming tasks that
// continuously read and write main memory (Table 1: 4096 → 20000
// tasks, 8192 → 10000 tasks).
func MC(size, dop int, scale float64) *dag.Graph { return mcInto(nil, size, dop, scale) }

func mcInto(reuse *dag.Graph, size, dop int, scale float64) *dag.Graph {
	total := 20000
	bytes := 3.0e6
	if size == 8192 {
		total = 10000
		bytes = 6.0e6
	}
	d := platform.TaskDemand{
		Ops: 0.3e6, Bytes: bytes, ParEff: 0.9, Activity: 0.4, RowHit: 0.95,
	}
	total = scaled(total, scale, dop*2)
	return buildChains(reuse, fmt.Sprintf("MC_%d_dop%d", size, dop), "mc_copy", d, dop, total)
}

// ST builds the synthetic Stencil benchmark: repeated neighbour
// updates on a multi-dimensional grid (Table 1: 512 and 2048 grids,
// 50000 tasks each).
func ST(size, dop int, scale float64) *dag.Graph { return stInto(nil, size, dop, scale) }

func stInto(reuse *dag.Graph, size, dop int, scale float64) *dag.Graph {
	total := 50000
	d := platform.TaskDemand{
		Ops: 1.8e6, Bytes: 1.1e6, ParEff: 0.9, Activity: 0.75, RowHit: 0.8,
	}
	if size == 2048 {
		d.Ops = 7.5e6
		d.Bytes = 4.5e6
	}
	total = scaled(total, scale, dop*2)
	return buildChains(reuse, fmt.Sprintf("ST_%d_dop%d", size, dop), "st_update", d, dop, total)
}

func buildChains(reuse *dag.Graph, name, kernel string, d platform.TaskDemand, width, total int) *dag.Graph {
	g := dag.Renew(reuse, name)
	k := g.AddKernel(kernel, d)
	depth := total / width
	if depth < 1 {
		depth = 1
	}
	for w := 0; w < width; w++ {
		var prev *dag.Task
		for i := 0; i < depth; i++ {
			if prev == nil {
				prev = g.AddTask(k)
			} else {
				prev = g.AddTask(k, prev)
			}
		}
	}
	return g.Seal()
}

// Config names one experiment workload configuration (one x-axis
// position of Figures 8 and 9).
type Config struct {
	Name  string
	Build func(scale float64) *dag.Graph
	// into, when set, rebuilds the workload recycling an existing
	// graph's arenas (see Config.BuildReuse). Configs constructed
	// outside this package leave it nil and fall back to Build.
	into func(reuse *dag.Graph, scale float64) *dag.Graph
}

// BuildReuse rebuilds the workload, recycling old's task and edge
// arenas when old is non-nil (old must no longer be executing). The
// result is structurally identical to Build(scale) — sweep workers use
// it to rebuild graphs without allocating once their arenas are warm.
// The result is sealed.
func (c Config) BuildReuse(old *dag.Graph, scale float64) *dag.Graph {
	if c.into == nil {
		return c.Build(scale).Seal()
	}
	return c.into(old, scale)
}

// Fig8Configs returns the 21 benchmark configurations of Figure 8 in
// the paper's x-axis order.
func Fig8Configs() []Config {
	cfg := func(name string, into func(reuse *dag.Graph, s float64) *dag.Graph) Config {
		return Config{
			Name:  name,
			Build: func(s float64) *dag.Graph { return into(nil, s) },
			into:  into,
		}
	}
	return []Config{
		cfg("HT_Small", func(g *dag.Graph, s float64) *dag.Graph { return hdInto(g, HDSmall, s) }),
		cfg("HT_Big", func(g *dag.Graph, s float64) *dag.Graph { return hdInto(g, HDBig, s) }),
		cfg("HT_Huge", func(g *dag.Graph, s float64) *dag.Graph { return hdInto(g, HDHuge, s) }),
		cfg("DP", dpInto),
		cfg("FB", fbInto),
		cfg("VG", vgInto),
		cfg("BI", biInto),
		cfg("AY", alInto),
		cfg("SLU", sluInto),
		cfg("MM_256_dop4", func(g *dag.Graph, s float64) *dag.Graph { return mmInto(g, 256, 4, s) }),
		cfg("MM_256_dop16", func(g *dag.Graph, s float64) *dag.Graph { return mmInto(g, 256, 16, s) }),
		cfg("MM_512_dop4", func(g *dag.Graph, s float64) *dag.Graph { return mmInto(g, 512, 4, s) }),
		cfg("MM_512_dop16", func(g *dag.Graph, s float64) *dag.Graph { return mmInto(g, 512, 16, s) }),
		cfg("MC_4096_dop4", func(g *dag.Graph, s float64) *dag.Graph { return mcInto(g, 4096, 4, s) }),
		cfg("MC_4096_dop16", func(g *dag.Graph, s float64) *dag.Graph { return mcInto(g, 4096, 16, s) }),
		cfg("MC_8192_dop4", func(g *dag.Graph, s float64) *dag.Graph { return mcInto(g, 8192, 4, s) }),
		cfg("MC_8192_dop16", func(g *dag.Graph, s float64) *dag.Graph { return mcInto(g, 8192, 16, s) }),
		cfg("ST_512_dop4", func(g *dag.Graph, s float64) *dag.Graph { return stInto(g, 512, 4, s) }),
		cfg("ST_512_dop16", func(g *dag.Graph, s float64) *dag.Graph { return stInto(g, 512, 16, s) }),
		cfg("ST_2048_dop4", func(g *dag.Graph, s float64) *dag.Graph { return stInto(g, 2048, 4, s) }),
		cfg("ST_2048_dop16", func(g *dag.Graph, s float64) *dag.Graph { return stInto(g, 2048, 16, s) }),
	}
}

// TableRow describes one benchmark for the Table 1 inventory.
type TableRow struct {
	Abbr        string
	Description string
	InputSize   string
	PaperTasks  string
}

// Table1 returns the benchmark inventory matching the paper's Table 1.
func Table1() []TableRow {
	return []TableRow{
		{"HD", "Heat diffusion on a 2D grid (iterative Jacobi stencil; kernels Copy and Jacobi)", "2048 / 8192 / 16384", "320032 / 32032 / 16032"},
		{"DP", "Blocked dot product of two vectors, 100 iterations", "VectorSize 6.4e6, BlockSize 32000", "20200"},
		{"FB", "Fibonacci numbers by recursion", "Term 55, GrainSize 34", "57314"},
		{"VG", "16-layer VGG CNN inference as a fork-join DAG, 10 iterations", "768x576 RGB image, blocksize 64", "5090"},
		{"BI", "Biomarker combinations for hip-infection prediction", "Sample Size 2", "6217"},
		{"AL", "Computational mechanics PDE solver, mesh partitioning", "200K CSR non-zeros", "47840"},
		{"SLU", "Sparse LU factorisation (kernels LU0, FWD, BDIV, BMOD)", "64 blocks, BlockSize 512", "11472"},
		{"MM", "Tiled matrix multiplication, configurable dop", "256x256 / 512x512", "10000 / 2000"},
		{"MC", "Streaming matrix copy, configurable dop", "4096x4096 / 8192x8192", "20000 / 10000"},
		{"ST", "Multi-dimensional grid stencil, configurable dop", "512x512 / 2048x2048", "50000 / 50000"},
	}
}
