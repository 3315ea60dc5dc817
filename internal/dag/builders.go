package dag

import "joss/internal/platform"

// Chains builds a graph of `width` independent chains of `depth` tasks
// of one kernel. The resulting DAG parallelism (dop) equals width,
// which is how the paper's synthetic MM/MC/ST benchmarks configure
// their task concurrency. The graph is returned sealed.
func Chains(name string, d platform.TaskDemand, width, depth int) *Graph {
	g := New(name)
	k := g.AddKernel(name+".kernel", d)
	for w := 0; w < width; w++ {
		var prev *Task
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
