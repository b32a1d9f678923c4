package experiments

import (
	"fmt"
	"time"

	"repro/internal/coexist"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mac/wigig"
	"repro/internal/mac/wihd"
	"repro/internal/transport"
)

func init() {
	register(Runner{ID: "A6", Title: "Ablation: channel separation closes the coexistence loop", Run: AblationChannelSeparation})
}

// AblationChannelSeparation closes the planning loop the coexist package
// opens: the Fig. 6 interference scenario is first analyzed by the
// geometric predictor, which assigns the WiHD system the other 60 GHz
// channel; rerunning the simulation with that assignment removes the
// WiGig collisions almost entirely. The paper forces both systems onto
// one channel to provoke interference (§4.4) — this ablation verifies
// that the model's second channel provides the isolation the real band
// plan would.
func AblationChannelSeparation(o Options) core.Result {
	res := core.Result{
		ID:    "A6",
		Title: "Channel separation vs same-channel interference",
		PaperClaim: "§4.4 forces both systems onto one channel; the band's second channel " +
			"(62.64 GHz) would isolate them — and a geometric predictor finds that plan",
	}
	run := func(wihdChannel int) (timeouts int, ok bool) {
		sc := o.scenario(geom.Open(), o.Seed)
		l := sc.AddWiGigLink(
			wigig.Config{Name: "dock", Pos: geom.V(0, 0), BoresightDeg: 90, Seed: o.Seed + 1},
			wigig.Config{Name: "laptop", Pos: geom.V(0, 6), BoresightDeg: -90, Seed: o.Seed + 2},
		)
		if !l.WaitAssociated(sc.Sched, 2*time.Second) {
			return 0, false
		}
		sys := sc.AddWiHD(
			wihd.Config{Name: "hdmi-tx", Pos: geom.V(0.5, -0.3), Seed: o.Seed + 3, Channel: wihdChannel},
			wihd.Config{Name: "hdmi-rx", Pos: geom.V(3.0, 7.3), Seed: o.Seed + 4, Channel: wihdChannel},
		)
		if !sys.WaitPaired(sc.Sched, 2*time.Second) {
			return 0, false
		}
		flow := transport.NewFlow(sc.Sched, l.Station, l.Dock, transport.Config{PacingBps: 400e6})
		flow.Start()
		dur := 800 * time.Millisecond
		if o.Quick {
			dur = 400 * time.Millisecond
		}
		sc.Run(dur)
		return l.Station.Stats.AckTimeouts + l.Dock.Stats.AckTimeouts, true
	}

	// The planner's view of the scenario.
	an := coexist.NewAnalyzer(geom.Open())
	links := []coexist.Link{
		{
			Name: "wigig",
			A:    coexist.Endpoint{Pos: geom.V(0, 0), BoresightDeg: 90},
			B:    coexist.Endpoint{Pos: geom.V(0, 6), BoresightDeg: -90},
		},
		{
			Name: "wihd",
			A:    coexist.Endpoint{Pos: geom.V(0.5, -0.3), BoresightDeg: 68, TxPowerDBm: 5},
			B:    coexist.Endpoint{Pos: geom.V(3.0, 7.3), BoresightDeg: -112},
		},
	}
	cs, err := an.Analyze(links)
	if err != nil {
		res.AddCheck("analysis", "runs", err.Error(), false)
		return res
	}
	assign, unresolved := coexist.AssignChannels(len(links), cs, 2)
	res.CheckTrue("planner separates the pair",
		"different channels, 0 unresolved", assign[0] != assign[1] && unresolved == 0)

	sameTO, ok1 := run(0)
	splitTO, ok2 := run(1)
	if !ok1 || !ok2 {
		res.AddCheck("setup", "links come up", "failed", false)
		return res
	}
	res.CheckTrue("same-channel interference present", "> 300", sameTO > 300)
	res.CheckTrue("channel separation removes most timeouts",
		fmt.Sprintf("same-channel %d", sameTO), splitTO*4 <= sameTO)
	res.Note("ack timeouts: same channel %d, split channels %d; planner assignment %v",
		sameTO, splitTO, assign)
	return res
}
