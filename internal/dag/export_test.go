package dag

// PredLists returns every task's predecessor IDs in AddTask order,
// indexed by task ID.
func (g *Graph) PredLists() [][]int32 {
	out := make([][]int32, len(g.Tasks))
	i := 0
	for id, n := range g.baseNpred {
		out[id] = g.preds[i : i+int(n)]
		i += int(n)
	}
	return out
}
