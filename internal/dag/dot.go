package dag

import (
	"fmt"
	"io"
)

// dotPalette colours nodes per kernel in WriteDOT output.
var dotPalette = []string{
	"lightblue", "lightsalmon", "palegreen", "gold", "plum",
	"lightgrey", "khaki", "lightpink", "aquamarine", "wheat",
}

// WriteDOT renders the graph in Graphviz DOT format, one node per
// task coloured by kernel — useful for inspecting small DAGs
// (`dot -Tsvg`). Graphs above maxTasks nodes are truncated with a
// summary node to keep the output renderable; pass 0 for no limit.
func (g *Graph) WriteDOT(w io.Writer, maxTasks int) error {
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=TB;\n  node [style=filled];\n", g.Name); err != nil {
		return err
	}
	limit := len(g.Tasks)
	if maxTasks > 0 && maxTasks < limit {
		limit = maxTasks
	}
	for _, t := range g.Tasks[:limit] {
		color := dotPalette[t.Kernel.Index%len(dotPalette)]
		if _, err := fmt.Fprintf(w, "  t%d [label=\"%s #%d\", fillcolor=%s];\n",
			t.ID, t.Kernel.Name, t.Seq, color); err != nil {
			return err
		}
	}
	for id := range limit {
		for _, s := range g.Succs(id) {
			if int(s) >= limit {
				continue
			}
			if _, err := fmt.Fprintf(w, "  t%d -> t%d;\n", id, s); err != nil {
				return err
			}
		}
	}
	if limit < len(g.Tasks) {
		if _, err := fmt.Fprintf(w, "  truncated [label=\"… %d more tasks\", shape=box, fillcolor=white];\n",
			len(g.Tasks)-limit); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
