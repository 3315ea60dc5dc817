package exp

import (
	"fmt"

	"joss/internal/dag"
	"joss/internal/sched"
	"joss/internal/stats"
	"joss/internal/taskrt"
	"joss/internal/workloads"
)

// ExtraSchedulerNames lists the related-work baselines implemented
// beyond the paper's own comparison (its §8 related work).
var ExtraSchedulerNames = []string{"HERMES", "OnDemand", "MemScale", "CoScale", "CATA"}

// newExtraScheduler builds one of the extension baselines.
func newExtraScheduler(name string) taskrt.Scheduler {
	switch name {
	case "HERMES":
		return sched.NewHERMES()
	case "OnDemand":
		return sched.NewOnDemand()
	case "MemScale":
		return sched.NewMemScale()
	case "CoScale":
		return sched.NewCoScale()
	case "CATA":
		return sched.NewCATA()
	}
	panic("exp: unknown extra scheduler " + name)
}

// Extras compares JOSS against governor-style related-work baselines
// (HERMES, Linux-ondemand, MemScale, CoScale) on the Figure 8
// benchmark set — an extension experiment: the paper argues that
// utilisation-driven policies cannot exploit task characteristics;
// this measures how much that costs them.
func (e *Env) Extras() *Fig8Result {
	names := append([]string{"GRWS"}, ExtraSchedulerNames...)
	names = append(names, "JOSS")
	var jobs []sweepJob
	for _, wl := range workloads.Fig8Configs() {
		for _, sn := range names {
			sn := sn
			jobs = append(jobs, sweepJob{wl: wl, label: sn, mk: func() taskrt.Scheduler {
				if sn == "GRWS" || sn == "JOSS" {
					return e.NewScheduler(sn)
				}
				return newExtraScheduler(sn)
			}})
		}
	}
	reports := e.sweep(jobs)

	res := &Fig8Result{
		NormTotal: make(map[string]map[string]float64),
		GeoMean:   make(map[string]float64),
		Reports:   reports,
	}
	t := &Table{
		Title:   "Extension: JOSS vs governor-style related work (energy normalised to GRWS)",
		Headers: append([]string{"benchmark"}, names...),
	}
	norms := make(map[string][]float64)
	for _, wl := range workloads.Fig8Configs() {
		base := EnergyOf(reports[wl.Name]["GRWS"]).TotalJ()
		row := []any{wl.Name}
		res.NormTotal[wl.Name] = make(map[string]float64)
		for _, sn := range names {
			n := EnergyOf(reports[wl.Name][sn]).TotalJ() / base
			res.NormTotal[wl.Name][sn] = n
			norms[sn] = append(norms[sn], n)
			row = append(row, fmt.Sprintf("%.3f", n))
		}
		t.AddRow(row...)
	}
	gm := []any{"Geo.Mean"}
	for _, sn := range names {
		res.GeoMean[sn] = stats.GeoMean(norms[sn])
		gm = append(gm, fmt.Sprintf("%.3f", res.GeoMean[sn]))
	}
	t.AddRow(gm...)
	t.Notes = append(t.Notes,
		"governors observe utilisation only; JOSS's task-characteristic models exploit per-kernel structure")
	res.Table = t
	return res
}

// DopSweep measures how the JOSS-vs-STEER gap changes with DAG
// parallelism — an extension of Figure 8's dop ∈ {4, 16} to a full
// sweep. Higher dop keeps more cores busy, shrinking idle-energy
// headroom, so the schedulers converge (the trend visible between the
// paper's dop4 and dop16 columns).
func (e *Env) DopSweep() *Table {
	dops := []int{1, 2, 4, 8, 16, 32}
	t := &Table{
		Title:   "Extension: MM energy vs DAG parallelism (normalised to GRWS at each dop)",
		Headers: []string{"dop", "GRWS", "STEER", "JOSS", "JOSS/STEER"},
	}
	for _, dop := range dops {
		dop := dop
		build := func(s float64) *dag.Graph { return workloads.MM(256, dop, s) }
		grws := EnergyOf(e.Run("GRWS", build(e.Scale))).TotalJ()
		steer := EnergyOf(e.Run("STEER", build(e.Scale))).TotalJ()
		joss := EnergyOf(e.Run("JOSS", build(e.Scale))).TotalJ()
		t.AddRow(dop, 1.0, steer/grws, joss/grws, joss/steer)
	}
	return t
}
