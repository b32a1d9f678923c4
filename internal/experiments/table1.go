package experiments

import (
	"math"
	"time"

	"repro/internal/antenna"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mac/wigig"
	"repro/internal/mac/wihd"
	"repro/internal/phy"
	"repro/internal/trace"
)

func init() {
	register(Runner{ID: "T1", Title: "Table 1: frame periodicity of D5000 and WiHD", Run: Table1})
}

// Table1 measures the four frame periodicities of the paper's Table 1
// with a sniffer, exactly as the paper does: capture a trace, extract
// per-class frame starts, report the repeat interval.
//
//	D5000 device discovery  102.4 ms
//	D5000 beacon            1.1 ms
//	WiHD device discovery   20 ms
//	WiHD beacon             0.224 ms
func Table1(o Options) core.Result {
	res := core.Result{
		ID:    "T1",
		Title: "Frame periodicity (Table 1)",
		PaperClaim: "D5000 discovery 102.4 ms, D5000 beacon 1.1 ms, " +
			"WiHD discovery 20 ms, WiHD beacon 0.224 ms",
	}
	capture := 800 * time.Millisecond
	if o.Quick {
		capture = 350 * time.Millisecond
	}

	// --- D5000 discovery: a lone, unassociated dock. ---
	{
		sc := o.scenario(geom.Open(), o.Seed)
		dock := wigig.NewDevice(sc.Med, wigig.Config{Name: "dock", Role: wigig.Dock, Pos: geom.V(0, 0), Seed: o.Seed})
		dock.Start()
		sn := sc.AddSniffer("vubiq", geom.V(1.5, 0), antenna.OpenWaveguide(), math.Pi)
		sc.Run(capture)
		p := trace.Periodicity(sn.Obs, phy.FrameDiscovery, dock.Radio().ID, 2*time.Millisecond)
		res.CheckRange("D5000 discovery interval", p.Seconds()*1000, 101, 104, "ms")
	}

	// --- D5000 beacon: an associated, idle link. ---
	{
		sc := o.scenario(geom.Open(), o.Seed+1)
		l := sc.AddWiGigLink(
			wigig.Config{Name: "dock", Pos: geom.V(0, 0), Seed: o.Seed + 1},
			wigig.Config{Name: "sta", Pos: geom.V(2, 0), Seed: o.Seed + 2},
		)
		if !l.WaitAssociated(sc.Sched, time.Second) {
			res.AddCheck("D5000 association", "associates", "failed", false)
			return res
		}
		sn := sc.AddSniffer("vubiq", geom.V(1, 0.5), antenna.OpenWaveguide(), -math.Pi/2)
		// The beacons leave through the trained data sector; the off-axis
		// sniffer needs front-end gain to catch their side lobes at every
		// codebook draw.
		sn.SensitivityDBm = -88
		sc.Run(capture / 2)
		p := trace.Periodicity(sn.Obs, phy.FrameBeacon, l.Dock.Radio().ID, 200*time.Microsecond)
		res.CheckRange("D5000 beacon interval", p.Seconds()*1000, 1.0, 1.3, "ms")
	}

	// --- WiHD discovery: a lone, unpaired transmitter. ---
	{
		sc := o.scenario(geom.Open(), o.Seed+3)
		tx := wihd.NewDevice(sc.Med, wihd.Config{Name: "hdmi-tx", Role: wihd.TX, Pos: geom.V(0, 0), Seed: o.Seed + 3})
		tx.Start()
		sn := sc.AddSniffer("vubiq", geom.V(1.5, 0), antenna.OpenWaveguide(), math.Pi)
		sc.Run(capture / 4)
		p := trace.Periodicity(sn.Obs, phy.FrameDiscovery, tx.Radio().ID, 2*time.Millisecond)
		res.CheckRange("WiHD discovery interval", p.Seconds()*1000, 19.5, 20.8, "ms")
	}

	// --- WiHD beacon: a paired link (receiver beacons). ---
	{
		sc := o.scenario(geom.Open(), o.Seed+4)
		sys := sc.AddWiHD(
			wihd.Config{Name: "hdmi-tx", Pos: geom.V(0, 0), Seed: o.Seed + 4},
			wihd.Config{Name: "hdmi-rx", Pos: geom.V(8, 0), Seed: o.Seed + 5},
		)
		if !sys.WaitPaired(sc.Sched, time.Second) {
			res.AddCheck("WiHD pairing", "pairs", "failed", false)
			return res
		}
		sys.TX.SetStreaming(false)
		sn := sc.AddSniffer("vubiq", geom.V(4, 0.5), antenna.OpenWaveguide(), -math.Pi/2)
		sc.Run(capture / 8)
		p := trace.Periodicity(sn.Obs, phy.FrameBeacon, sys.RX.Radio().ID, 50*time.Microsecond)
		res.CheckRange("WiHD beacon interval", p.Seconds()*1000, 0.215, 0.235, "ms")
	}
	return res
}
