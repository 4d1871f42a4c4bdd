package experiments

import (
	"fmt"
	"time"

	"hypertp/internal/cluster"
	"hypertp/internal/obs"
	"hypertp/internal/sched"
)

// Fig13Point is one InPlaceTP-compatibility level of the §5.4 cluster
// upgrade.
type Fig13Point struct {
	CompatPct   int
	Migrations  int
	TotalTime   time.Duration
	TimeGainPct float64
}

// Figure13 reproduces Fig. 13: upgrading a 10-host x 10-VM cluster while
// varying the fraction of InPlaceTP-compatible VMs. Reported are the
// migration count and the total-time reduction relative to the
// all-migration plan.
func Figure13() ([]Fig13Point, *obs.Table, error) {
	model := cluster.DefaultExecutionModel()
	run := func(frac float64) (cluster.Result, error) {
		c, err := cluster.New(cluster.Config{
			Hosts: 10, VMsPerHost: 10, StreamFrac: 0.3, CPUFrac: 0.3,
		})
		if err != nil {
			return cluster.Result{}, err
		}
		c.SetInPlaceCompatibleFraction(frac, Seed)
		plan, err := c.PlanUpgrade(1, nil)
		if err != nil {
			return cluster.Result{}, err
		}
		if err := c.Validate(); err != nil {
			return cluster.Result{}, err
		}
		return plan.Execute(model, nil, sched.Serial())
	}

	base, err := run(0)
	if err != nil {
		return nil, nil, err
	}
	var points []Fig13Point
	tab := &obs.Table{
		Title:   "Figure 13: cluster upgrade (10 hosts x 10 VMs) vs InPlaceTP-compatible fraction",
		Headers: []string{"Compatible %", "# migrations", "Total time", "Time gain %"},
	}
	for _, pct := range []int{0, 20, 40, 60, 80} {
		res, err := run(float64(pct) / 100)
		if err != nil {
			return nil, nil, err
		}
		gain := (1 - float64(res.TotalTime)/float64(base.TotalTime)) * 100
		points = append(points, Fig13Point{
			CompatPct: pct, Migrations: res.Migrations,
			TotalTime: res.TotalTime, TimeGainPct: gain,
		})
		tab.AddRow(fmt.Sprint(pct), fmt.Sprint(res.Migrations),
			res.TotalTime.Round(time.Second).String(), fmt.Sprintf("%.0f", gain))
	}
	return points, tab, nil
}

// GroupSizePoint is one offline-group-size configuration of the rolling
// upgrade.
type GroupSizePoint struct {
	GroupSize  int
	Migrations int
	TotalTime  time.Duration
}

// GroupSizeSweep is a planner ablation beyond the paper's fixed setup:
// how the number of hosts taken offline per round trades migration count
// against upgrade parallelism (all-migration plan, 10 hosts x 10 VMs).
func GroupSizeSweep() ([]GroupSizePoint, *obs.Table, error) {
	model := cluster.DefaultExecutionModel()
	tab := &obs.Table{
		Title:   "Planner ablation: offline group size (0% InPlaceTP-compatible)",
		Headers: []string{"Group size", "# migrations", "Total time"},
	}
	var points []GroupSizePoint
	for _, gs := range []int{1, 2, 5} {
		c, err := cluster.New(cluster.Config{
			Hosts: 10, VMsPerHost: 10, StreamFrac: 0.3, CPUFrac: 0.3,
		})
		if err != nil {
			return nil, nil, err
		}
		plan, err := c.PlanUpgrade(gs, nil)
		if err != nil {
			return nil, nil, err
		}
		if err := c.Validate(); err != nil {
			return nil, nil, err
		}
		res, err := plan.Execute(model, nil, sched.Serial())
		if err != nil {
			return nil, nil, err
		}
		points = append(points, GroupSizePoint{
			GroupSize: gs, Migrations: res.Migrations, TotalTime: res.TotalTime,
		})
		tab.AddRow(fmt.Sprint(gs), fmt.Sprint(res.Migrations),
			res.TotalTime.Round(time.Second).String())
	}
	return points, tab, nil
}
