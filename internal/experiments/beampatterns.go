package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/antenna"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mac/wigig"
	"repro/internal/sniffer"
	"repro/internal/stats"
	"repro/internal/transport"
)

func init() {
	register(Runner{ID: "F16", Title: "Fig. 16: quasi-omni discovery patterns", Run: Fig16})
	register(Runner{ID: "F17", Title: "Fig. 17: directional patterns, aligned and rotated", Run: Fig17})
}

// profileMetrics analyzes a measured semicircle profile like the paper
// reads its polar plots: HPBW around the peak, strongest side lobe
// relative to the peak, and deep gaps.
type profileMetrics struct {
	PeakDBm     float64
	HPBWDeg     float64
	PeakSideDB  float64 // strongest non-main-lobe local max, relative dB
	DeepGaps    int     // positions more than 15 dB below peak
	SideLobeCnt int     // side lobes within 6 dB of the main lobe
}

func analyzeProfile(p sniffer.AngularProfile) profileMetrics {
	m := profileMetrics{PeakDBm: p.PeakDBm(), PeakSideDB: math.Inf(-1)}
	norm := p.Normalized()
	n := len(norm)
	peak := 0
	for i, v := range norm {
		if v == 0 {
			peak = i
		}
	}
	// HPBW: contiguous region around the peak within 3 dB. The
	// semicircle positions are equally spaced in angle.
	if n > 1 {
		step := geom.Deg(math.Abs(p.AnglesRad[1] - p.AnglesRad[0]))
		width := 1
		for i := peak + 1; i < n && norm[i] >= -3; i++ {
			width++
		}
		for i := peak - 1; i >= 0 && norm[i] >= -3; i-- {
			width++
		}
		m.HPBWDeg = float64(width) * step
	}
	// Main lobe extent: out to the first -6 dB crossing on each side.
	inMain := make([]bool, n)
	inMain[peak] = true
	for i := peak + 1; i < n && norm[i] >= -6; i++ {
		inMain[i] = true
	}
	for i := peak - 1; i >= 0 && norm[i] >= -6; i-- {
		inMain[i] = true
	}
	for i := 1; i < n-1; i++ {
		if inMain[i] {
			continue
		}
		if norm[i] >= norm[i-1] && norm[i] > norm[i+1] {
			if norm[i] > m.PeakSideDB {
				m.PeakSideDB = norm[i]
			}
			if norm[i] >= -6 {
				m.SideLobeCnt++
			}
		}
	}
	for _, v := range norm {
		if v < -15 {
			m.DeepGaps++
		}
	}
	return m
}

// Fig16 measures the D5000's 32 quasi-omni discovery patterns on the
// paper's outdoor semicircle rig (100 positions, r = 3.2 m) and checks:
// every pattern is recovered, HPBW reaches tens of degrees (up to ≈60°),
// deep gaps exist, and patterns are comparable in peak power.
func Fig16(o Options) core.Result {
	res := core.Result{
		ID:         "F16",
		Title:      "Quasi-omni discovery patterns (Fig. 16)",
		PaperClaim: "32 patterns; HPBW up to ≈60°; several deep gaps each; comparable focus and power",
	}
	sc := o.scenario(geom.Open(), o.Seed)
	sc.Med.FadingSigmaDB = 0.3
	dock := wigig.NewDevice(sc.Med, wigig.Config{Name: "dock", Role: wigig.Dock, Pos: geom.V(0, 0), Seed: o.Seed})
	dock.Start()
	sn := sniffer.New(sc.Med, "vubiq", geom.V(3.2, 0), antenna.MeasurementHorn(), math.Pi)
	sn.SensitivityDBm = -88

	nPos := 100
	dwell := 240 * time.Millisecond // ≥2 discovery sweeps per position
	if o.Quick {
		nPos = 40
		dwell = 130 * time.Millisecond
	}
	profs := sn.SubElementSweep(sc.Med, geom.V(0, 0), 3.2, nPos, dwell)
	res.CheckRange("patterns recovered", float64(len(profs)), 30, 32, "")

	var hpbws, peaks []float64
	gapped := 0
	metas := make([]int, 0, len(profs))
	for meta := range profs {
		metas = append(metas, meta)
	}
	sort.Ints(metas)
	for _, meta := range metas {
		p := profs[meta]
		m := analyzeProfile(p)
		if math.IsInf(m.PeakDBm, -1) {
			continue
		}
		hpbws = append(hpbws, m.HPBWDeg)
		peaks = append(peaks, m.PeakDBm)
		if m.DeepGaps > 0 {
			gapped++
		}
		if len(res.Series) < 4 { // the paper plots 4 of the 32
			res.Series = append(res.Series, core.Series{
				Label:  fmt.Sprintf("quasi-omni %d", meta),
				XLabel: "angle (rad)", YLabel: "relative power (dB)",
				X: p.AnglesRad, Y: p.Normalized(),
			})
		}
	}
	res.CheckRange("widest HPBW", stats.Max(hpbws), 35, 130, "deg")
	res.CheckTrue("patterns with deep gaps", "most", gapped*10 >= len(profs)*6)
	// Comparable received power across patterns: spread within ~12 dB.
	res.CheckRange("peak power spread", stats.Max(peaks)-stats.Min(peaks), 0, 14, "dB")
	res.Note("measured %d patterns, median HPBW %.0f°, %d with deep gaps",
		len(profs), stats.Median(hpbws), gapped)
	return res
}

// fig17Sweep measures the transmit pattern of one end of an active WiGig
// link on the semicircle rig, keeping traffic flowing so the DUT uses
// its trained data-transmission sector.
func fig17Sweep(o Options, rotateDockDeg float64, aroundDock bool) (sniffer.AngularProfile, *wigig.Link, bool) {
	sc := o.scenario(geom.Open(), o.Seed)
	sc.Med.FadingSigmaDB = 0.3
	dockBore := geom.Deg(geom.V(1, 0).Angle()) // facing the station at +X
	if rotateDockDeg != 0 {
		dockBore = rotateDockDeg
	}
	l := sc.AddWiGigLink(
		wigig.Config{Name: "dock", Pos: geom.V(0, 0), BoresightDeg: dockBore, Seed: o.Seed},
		wigig.Config{Name: "sta", Pos: geom.V(2, 0), BoresightDeg: 180, Seed: o.Seed + 1},
	)
	if !l.WaitAssociated(sc.Sched, 2*time.Second) {
		return sniffer.AngularProfile{}, l, false
	}
	// Keep data flowing dock→station so the sniffer hears the dock's
	// data-phase sector pattern; the paper filters to data frames.
	flow := transport.NewFlow(sc.Sched, l.Dock, l.Station, transport.Config{PacingBps: 400e6})
	flow.Start()
	sc.Run(50 * time.Millisecond)

	center := geom.V(0, 0)
	if !aroundDock {
		center = geom.V(2, 0)
	}
	sn := sniffer.New(sc.Med, "vubiq", center.Add(geom.V(3.2, 0)), antenna.MeasurementHorn(), math.Pi)
	sn.SensitivityDBm = -92
	nPos := 100
	dwell := 6 * time.Millisecond
	if o.Quick {
		nPos = 60
	}
	prof := sn.SemicircleSweep(sc.Med, center, 3.2, nPos, dwell)
	return prof, l, true
}

// Fig17 measures the directional data-transmission patterns: the aligned
// dock shows a <20° main lobe with side lobes in the −4..−6 dB range;
// rotating the dock 70° forces a boundary sector with ≈10 dB less gain
// and side lobes as strong as −1 dB.
func Fig17(o Options) core.Result {
	res := core.Result{
		ID:    "F17",
		Title: "Directional beam patterns (Fig. 17)",
		PaperClaim: "HPBW < 20°; side lobes −4..−6 dB; rotated 70°: ≈10 dB weaker main lobe, " +
			"more side lobes up to −1 dB",
	}
	aligned, _, ok := fig17Sweep(o, 0, true)
	if !ok {
		res.AddCheck("aligned association", "associates", "failed", false)
		return res
	}
	am := analyzeProfile(aligned)
	res.Series = append(res.Series, core.Series{
		Label: "D5000 aligned", XLabel: "angle (rad)", YLabel: "relative power (dB)",
		X: aligned.AnglesRad, Y: aligned.Normalized(),
	})
	res.CheckRange("aligned HPBW", am.HPBWDeg, 5, 20, "deg")
	res.CheckRange("aligned peak side lobe", am.PeakSideDB, -16, -3, "dB")

	// The paper's Fig. 17 left panel: the notebook's transmit pattern,
	// measured the same way around the laptop (the sniffer hears the
	// laptop's TCP-ACK/data frames).
	laptop, _, ok := fig17Sweep(o.companion(o.Seed+31), 0, false)
	if !ok {
		res.AddCheck("laptop sweep association", "associates", "failed", false)
		return res
	}
	lm := analyzeProfile(laptop)
	res.Series = append(res.Series, core.Series{
		Label: "E7440 laptop", XLabel: "angle (rad)", YLabel: "relative power (dB)",
		X: laptop.AnglesRad, Y: laptop.Normalized(),
	})
	res.CheckRange("laptop HPBW", lm.HPBWDeg, 5, 20, "deg")
	res.CheckRange("laptop peak side lobe", lm.PeakSideDB, -26, -3, "dB")

	rotated, rl, ok := fig17Sweep(o.companion(o.Seed+50), 70, true)
	if !ok {
		res.AddCheck("rotated association", "associates", "failed", false)
		return res
	}
	rm := analyzeProfile(rotated)
	res.Series = append(res.Series, core.Series{
		Label: "D5000 rotated 70°", XLabel: "angle (rad)", YLabel: "relative power (dB)",
		X: rotated.AnglesRad, Y: rotated.Normalized(),
	})
	gainLoss := am.PeakDBm - rm.PeakDBm
	res.CheckRange("rotated main-lobe loss", gainLoss, 3, 18, "dB")
	res.CheckRange("rotated peak side lobe", rm.PeakSideDB, -8, 0, "dB")
	res.CheckTrue("rotated side lobes stronger", "rotated > aligned",
		rm.PeakSideDB > am.PeakSideDB)
	res.CheckTrue("rotated has more strong side lobes",
		fmt.Sprintf("aligned %d", am.SideLobeCnt), rm.SideLobeCnt >= am.SideLobeCnt)
	if rl.Dock.Sector() >= 0 {
		sec := rl.Dock.Codebook().Sectors[rl.Dock.Sector()]
		res.Note("rotated dock trained sector steers %.0f° (array boundary)", sec.SteerDeg)
	}
	res.Note("dock aligned: HPBW %.0f°, PSL %.1f dB; laptop: HPBW %.0f°, PSL %.1f dB; rotated dock: PSL %.1f dB, loss %.1f dB",
		am.HPBWDeg, am.PeakSideDB, lm.HPBWDeg, lm.PeakSideDB, rm.PeakSideDB, gainLoss)
	return res
}
