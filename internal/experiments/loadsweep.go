package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/antenna"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mac/wigig"
	"repro/internal/par"
	"repro/internal/sniffer"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transport"
)

func init() {
	register(Runner{ID: "F9", Title: "Fig. 9: WiGig data frame length CDF vs TCP load", Run: Fig9})
	register(Runner{ID: "F10", Title: "Fig. 10: percentage of long frames vs TCP load", Run: Fig10})
	register(Runner{ID: "F11", Title: "Fig. 11: medium usage vs TCP load", Run: Fig11})
	register(Runner{ID: "S41", Title: "§4.1: aggregation-only throughput scaling", Run: AggregationGain})
}

// paperLoadsBps are the TCP throughput operating points of Figs. 9–11.
var paperLoadsBps = []float64{
	9.7e3, 40e3, 171e6, 183e6, 372e6, 601e6, 806e6, 831e6, 930e6, 934e6,
}

// occupancyWindow is the trace-window size of the Fig. 11 medium-usage
// metric (one oscilloscope capture per window).
const occupancyWindow = time.Millisecond

// loadPoint is one operating point of the Figs. 9–11 sweep. The sweep
// streams every capture through sniffer sinks, so a point carries only
// the folded metrics (plus the frame-length sample for the CDFs), not
// the raw observations.
type loadPoint struct {
	OfferedBps float64
	// LengthsUs are the data-frame air times (µs) — the Fig. 9 sample.
	LengthsUs []float64
	// Occupancy is the occupancyWindow trace-window occupancy (Fig. 11).
	Occupancy float64
	// LongFrac is the fraction of data frames over LongFrameThreshold.
	LongFrac   float64
	MeanMPDUs  float64
	GoodputBps float64
}

// runLoadSweep drives a 2 m WiGig link at each offered load (via the
// iperf pacing knob, the stand-in for the paper's TCP window control)
// and captures sniffer traces.
func runLoadSweep(o Options, loads []float64) []loadPoint {
	// Every operating point is its own scenario with derived seeds; the
	// sweep pool runs them concurrently and par.Map keeps the results in
	// load order regardless of completion order.
	slots := par.Map(len(loads), func(i int) *loadPoint {
		load := loads[i]
		sc := o.scenario(geom.Open(), o.Seed+uint64(i)*7)
		l := sc.AddWiGigLink(
			wigig.Config{Name: "dock", Pos: geom.V(0, 0), Seed: o.Seed + uint64(i)*7},
			wigig.Config{Name: "sta", Pos: geom.V(2, 0), Seed: o.Seed + uint64(i)*7 + 1},
		)
		if !l.WaitAssociated(sc.Sched, time.Second) {
			return nil
		}
		sn := sc.AddSniffer("vubiq", geom.V(1, 0.4), antenna.OpenWaveguide(), -math.Pi/2)
		flow := transport.NewFlow(sc.Sched, l.Station, l.Dock, transport.Config{PacingBps: load})
		flow.Start()
		// Let slow start settle before capturing.
		warm := 120 * time.Millisecond
		capture := 400 * time.Millisecond
		if o.Quick {
			warm, capture = 60*time.Millisecond, 150*time.Millisecond
		}
		if load < 1e6 {
			// Kbps loads need longer windows to catch any frame at all.
			capture *= 4
		}
		sc.Run(warm)
		from := sc.Now()
		sn.Reset()
		var ds trace.DataSampler
		om := trace.NewOccupancyMeter(from, occupancyWindow)
		sn.Sink = sniffer.Tee(&ds, om)
		sn.SinkOnly = true
		sc.Run(capture)
		// Kilobit-scale loads produce a frame every second or more; keep
		// capturing (the paper records minutes-long traces) until the
		// CDF has something to work with.
		if load < 1e6 {
			deadline := sc.Now() + 8*time.Second
			for ds.Count() < 4 && sc.Now() < deadline {
				sc.Run(500 * time.Millisecond)
			}
		}
		return &loadPoint{
			OfferedBps: load,
			LengthsUs:  ds.LengthsUs,
			Occupancy:  om.Occupancy(sc.Now()),
			LongFrac:   ds.LongFraction(),
			MeanMPDUs:  ds.MeanMPDUs(),
			GoodputBps: flow.GoodputBps(),
		}
	})
	var out []loadPoint
	for _, p := range slots {
		if p != nil {
			out = append(out, *p)
		}
	}
	return out
}

func sweepLoads(o Options) []float64 {
	if o.Quick {
		return []float64{9.7e3, 171e6, 601e6, 934e6}
	}
	return paperLoadsBps
}

func mbpsLabel(bps float64) string {
	if bps < 1e6 {
		return fmt.Sprintf("%.1f kbps", bps/1e3)
	}
	return fmt.Sprintf("%.0f mbps", bps/1e6)
}

// Fig9 reproduces the frame-length CDFs: short ≈5 µs frames dominate at
// low loads; long 15–25 µs aggregates appear as load grows; nothing
// exceeds 25 µs.
func Fig9(o Options) core.Result {
	res := core.Result{
		ID:         "F9",
		Title:      "WiGig data frame length CDF (Fig. 9)",
		PaperClaim: "bimodal: short ≈5 µs and long 15–25 µs frames; long fraction grows with load; max 25 µs",
	}
	points := runLoadSweep(o, sweepLoads(o))
	if len(points) == 0 {
		res.AddCheck("sweep", "runs", "no points", false)
		return res
	}
	var lowShortQ, highLongFrac float64
	var maxLen float64
	for _, p := range points {
		lens := p.LengthsUs
		if len(lens) == 0 {
			continue
		}
		cdf := stats.NewCDF(lens)
		xs, ps := cdf.Points(60)
		res.Series = append(res.Series, core.Series{
			Label: mbpsLabel(p.OfferedBps), XLabel: "frame length (µs)", YLabel: "CDF",
			X: xs, Y: ps,
		})
		for _, v := range lens {
			if v > maxLen {
				maxLen = v
			}
		}
		if p.OfferedBps < 1e6 {
			lowShortQ = cdf.At(8) // fraction of short frames at kbps load
		}
		if p.OfferedBps > 900e6 {
			highLongFrac = 1 - cdf.At(8)
		}
	}
	res.CheckRange("short-frame fraction at kbps load", lowShortQ, 0.8, 1.0, "")
	res.CheckRange("long-frame fraction at ≈930 mbps", highLongFrac, 0.5, 1.0, "")
	res.CheckRange("maximum frame length", maxLen, 10, 25.5, "µs")
	return res
}

// Fig10 reproduces the long-frame percentage bar chart: near zero at
// kbps loads, rising monotonically with load.
func Fig10(o Options) core.Result {
	res := core.Result{
		ID:         "F10",
		Title:      "Percentage of long frames (Fig. 10)",
		PaperClaim: "fraction of frames >≈5 µs grows from ≈0% (kbps) towards ≈80–100% (≥800 mbps)",
	}
	points := runLoadSweep(o, sweepLoads(o))
	var xs, ys []float64
	for _, p := range points {
		xs = append(xs, p.OfferedBps/1e6)
		ys = append(ys, p.LongFrac*100)
	}
	res.Series = append(res.Series, core.Series{
		Label: "long frames", XLabel: "offered load (mbps)", YLabel: "long frames (%)",
		X: xs, Y: ys,
	})
	if len(ys) < 2 {
		res.AddCheck("sweep", "≥2 points", "insufficient", false)
		return res
	}
	res.CheckRange("long frames at lowest load", ys[0], 0, 10, "%")
	last := ys[len(ys)-1]
	res.CheckRange("long frames at highest load", last, 50, 100, "%")
	// Broadly monotone: each point within 15 points of the running max
	// keeps the trend.
	mono := true
	runMax := 0.0
	for _, v := range ys {
		if v < runMax-20 {
			mono = false
		}
		if v > runMax {
			runMax = v
		}
	}
	res.CheckTrue("fraction grows with load", "monotone trend", mono)
	return res
}

// Fig11 reproduces the medium-usage bars: trace-window occupancy is tiny
// at kbps loads and saturates near 100% for loads ≥171 mbps.
func Fig11(o Options) core.Result {
	res := core.Result{
		ID:         "F11",
		Title:      "WiGig medium usage (Fig. 11)",
		PaperClaim: "occupancy ≈0 at kbps loads; ≈100% of trace windows contain data frames for ≥171 mbps",
	}
	points := runLoadSweep(o, sweepLoads(o))
	var xs, ys []float64
	for _, p := range points {
		xs = append(xs, p.OfferedBps/1e6)
		ys = append(ys, p.Occupancy*100)
	}
	res.Series = append(res.Series, core.Series{
		Label: "medium usage", XLabel: "offered load (mbps)", YLabel: "windows with data (%)",
		X: xs, Y: ys,
	})
	if len(ys) == 0 {
		res.AddCheck("sweep", "runs", "no points", false)
		return res
	}
	res.CheckRange("occupancy at kbps load", ys[0], 0, 15, "%")
	for i, p := range points {
		if p.OfferedBps >= 171e6 {
			res.CheckRange(fmt.Sprintf("occupancy at %s", mbpsLabel(p.OfferedBps)),
				ys[i], 90, 100, "%")
		}
	}
	return res
}

// AggregationGain verifies the paper's §4.1 headline: with medium usage
// saturated and the MCS constant, WiGig scales TCP throughput ≈5.4×
// (171→934 mbps) purely by aggregating more MPDUs per frame.
func AggregationGain(o Options) core.Result {
	res := core.Result{
		ID:         "S41",
		Title:      "Aggregation-only throughput scaling (§4.1)",
		PaperClaim: "171→934 mbps (≈5.4×) at constant MCS and saturated medium usage, via ≤25 µs aggregates",
	}
	loads := []float64{171e6, 934e6}
	points := runLoadSweep(o, loads)
	if len(points) != 2 {
		res.AddCheck("sweep", "2 points", fmt.Sprintf("%d", len(points)), false)
		return res
	}
	lo, hi := points[0], points[1]
	gain := hi.GoodputBps / lo.GoodputBps
	res.CheckRange("throughput gain", gain, 3.5, 7, "x")

	// Mean MPDUs per frame must grow while frame air time stays ≤25 µs.
	aggLo, aggHi := lo.MeanMPDUs, hi.MeanMPDUs
	res.CheckTrue("aggregation grows", fmt.Sprintf("%.1f → more", aggLo), aggHi > aggLo*1.5)
	// Occupancy saturated at both points.
	res.CheckRange("occupancy at 171 mbps", lo.Occupancy*100, 90, 100, "%")
	res.CheckRange("occupancy at 934 mbps", hi.Occupancy*100, 90, 100, "%")
	res.Note("mean MPDUs/frame: %.1f at 171 mbps, %.1f at 934 mbps", aggLo, aggHi)
	return res
}
