package experiments

import (
	"fmt"
	"time"

	"repro/internal/coexist"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mac/wigig"
	"repro/internal/par"
	"repro/internal/transport"
)

func init() {
	register(Runner{ID: "X2", Title: "Extension: dense multi-link deployment with channel planning", Run: DenseDeployment})
}

// DenseDeployment scales the paper's motivation — "dense deployment
// scenarios" (§2) — to N parallel WiGig links packed one meter apart.
// On a single channel, CSMA serializes the room and per-link goodput
// collapses as N grows; letting the coexist planner split the links
// across the band's two channels buys back most of it. The experiment
// closes the loop from the paper's §5 design principles to an actual
// deployment decision.
func DenseDeployment(o Options) core.Result {
	res := core.Result{
		ID:    "X2",
		Title: "Dense deployment with channel planning (extension)",
		PaperClaim: "§2 motivates dense deployments; §4.4 shows same-channel coexistence is costly — " +
			"a planner splitting the two 60 GHz channels should recover most of the loss",
	}
	counts := []int{2, 6}
	if o.Quick {
		counts = []int{2, 4}
	}
	const perLinkBps = 450e6
	dur := 900 * time.Millisecond
	if o.Quick {
		dur = 450 * time.Millisecond
	}

	run := func(n int, channels []int) (aggBps float64, timeouts int, ok bool) {
		sc := o.scenario(geom.Open(), o.Seed)
		sc.Med.Budget.AtmosphericSigmaDB = 0
		links := make([]*wigig.Link, n)
		// Bring the links up one at a time — simultaneous discovery
		// sweeps from co-located docks would collide, as they would in a
		// real staggered deployment.
		for i := 0; i < n; i++ {
			ch := 0
			if channels != nil {
				ch = channels[i]
			}
			x := 0.5 * float64(i)
			links[i] = sc.AddWiGigLink(
				wigig.Config{Name: fmt.Sprintf("dock%d", i), Pos: geom.V(x, 0),
					BoresightDeg: 90, Seed: o.Seed + uint64(2*i+1), Channel: ch},
				wigig.Config{Name: fmt.Sprintf("lap%d", i), Pos: geom.V(x, 4),
					BoresightDeg: -90, Seed: o.Seed + uint64(2*i+2), Channel: ch},
			)
			if !links[i].WaitAssociated(sc.Sched, 2*time.Second) {
				return 0, 0, false
			}
		}
		flows := make([]*transport.Flow, n)
		for i, l := range links {
			flows[i] = transport.NewFlow(sc.Sched, l.Station, l.Dock,
				transport.Config{PacingBps: perLinkBps})
			flows[i].Start()
		}
		sc.Run(dur)
		for i, l := range links {
			aggBps += flows[i].GoodputBps()
			timeouts += l.Station.Stats.AckTimeouts + l.Dock.Stats.AckTimeouts
		}
		return aggBps, timeouts, true
	}

	// The planner's channel assignment for the largest configuration.
	planFor := func(n int) []int {
		var pls []coexist.Link
		for i := 0; i < n; i++ {
			x := 0.5 * float64(i)
			pls = append(pls, coexist.Link{
				Name: fmt.Sprintf("link%d", i),
				A:    coexist.Endpoint{Pos: geom.V(x, 0), BoresightDeg: 90},
				B:    coexist.Endpoint{Pos: geom.V(x, 4), BoresightDeg: -90},
			})
		}
		an := coexist.NewAnalyzer(geom.Open())
		cs, err := an.Analyze(pls)
		if err != nil {
			return nil
		}
		assign, _ := coexist.AssignChannels(len(pls), cs, 2)
		return assign
	}

	// Flatten the counts × {same-channel, planned} grid; each cell is an
	// independent scenario, and planFor is a pure function of n, so the
	// whole grid runs concurrently. Even cells are same-channel, odd ones
	// planned.
	type x2Cell struct {
		agg      float64
		timeouts int
		plan     []int
		ok       bool
	}
	cells := par.Map(2*len(counts), func(k int) x2Cell {
		n := counts[k/2]
		var plan []int
		if k%2 == 1 {
			plan = planFor(n)
		}
		agg, to, ok := run(n, plan)
		return x2Cell{agg: agg, timeouts: to, plan: plan, ok: ok}
	})
	var sameX, sameY, planY []float64
	for ci, n := range counts {
		same, planned := cells[2*ci], cells[2*ci+1]
		if !same.ok {
			res.AddCheck(fmt.Sprintf("bring-up n=%d same-channel", n), "associates", "failed", false)
			return res
		}
		if !planned.ok {
			res.AddCheck(fmt.Sprintf("bring-up n=%d planned", n), "associates", "failed", false)
			return res
		}
		sameX = append(sameX, float64(n))
		sameY = append(sameY, same.agg/1e6)
		planY = append(planY, planned.agg/1e6)
		res.Note("n=%d: same-channel %.0f mbps (%d timeouts), planned %v → %.0f mbps (%d timeouts)",
			n, same.agg/1e6, same.timeouts, planned.plan, planned.agg/1e6, planned.timeouts)
	}
	res.Series = append(res.Series,
		core.Series{Label: "same channel", XLabel: "links", YLabel: "aggregate goodput (mbps)", X: sameX, Y: sameY},
		core.Series{Label: "planned channels", XLabel: "links", YLabel: "aggregate goodput (mbps)", X: sameX, Y: planY},
	)

	nBig := float64(counts[len(counts)-1])
	offered := nBig * perLinkBps / 1e6
	lastSame := sameY[len(sameY)-1]
	lastPlan := planY[len(planY)-1]
	res.CheckRange("planned small deployment delivers its offered load",
		planY[0], float64(counts[0])*perLinkBps/1e6*0.9, float64(counts[0])*perLinkBps/1e6*1.05, "mbps")
	res.CheckTrue("even two same-channel links at 0.5 m lose throughput",
		fmt.Sprintf("offered %.0f mbps", float64(counts[0])*perLinkBps/1e6),
		sameY[0] < float64(counts[0])*perLinkBps/1e6*0.95)
	res.CheckTrue("same-channel density costs throughput",
		fmt.Sprintf("offered %.0f mbps", offered), lastSame < offered*0.9)
	res.CheckTrue("channel planning recovers capacity",
		fmt.Sprintf("same-channel %.0f mbps", lastSame), lastPlan > lastSame*1.1)
	return res
}
