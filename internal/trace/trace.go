// Package trace implements the paper's offline trace analyses — the
// Matlab post-processing of Section 3.2 — over sniffer observations:
// threshold-based frame detection, frame classification by duration and
// amplitude, medium-usage metrics (both the §4.1 "traces containing data
// frames" occupancy and the §4.4 busy-time ratio), frame-length CDFs,
// and periodicity estimation for Table 1.
package trace

import (
	"sort"
	"time"

	"repro/internal/phy"
	"repro/internal/sniffer"
	"repro/internal/stats"
)

// LongFrameThreshold splits the paper's bimodal frame-length
// distribution: frames of ≈5 µs are single MPDUs, frames above are
// aggregates ("longer than ≈5 µs", Fig. 10).
const LongFrameThreshold = 8 * time.Microsecond

// DataFrames filters observations to payload-class frames using the
// paper's criterion: duration and repetitive amplitude distinguish data
// from the short control/beacon population, without decoding.
func DataFrames(obs []sniffer.Observation) []sniffer.Observation {
	var out []sniffer.Observation
	for _, o := range obs {
		if o.Type == phy.FrameData {
			out = append(out, o)
		}
	}
	return out
}

// FrameLengthsUs returns the duration of each data frame in
// microseconds — the sample behind the Fig. 9 CDFs.
func FrameLengthsUs(obs []sniffer.Observation) []float64 {
	data := DataFrames(obs)
	out := make([]float64, 0, len(data))
	for _, o := range data {
		out = append(out, float64(o.Duration())/float64(time.Microsecond))
	}
	return out
}

// FrameLengthCDF builds the empirical CDF of data-frame air-times in µs.
func FrameLengthCDF(obs []sniffer.Observation) *stats.CDF {
	return stats.NewCDF(FrameLengthsUs(obs))
}

// LongFrameFraction returns the fraction of data frames longer than
// LongFrameThreshold (Fig. 10's y-axis).
func LongFrameFraction(obs []sniffer.Observation) float64 {
	data := DataFrames(obs)
	if len(data) == 0 {
		return 0
	}
	long := 0
	for _, o := range data {
		if o.Duration() > LongFrameThreshold {
			long++
		}
	}
	return float64(long) / float64(len(data))
}

// interval is a half-open busy span.
type interval struct{ a, b time.Duration }

// mergeIntervals unions overlapping spans and returns total covered time.
func mergeIntervals(iv []interval) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].a < iv[j].a })
	total := time.Duration(0)
	cur := iv[0]
	for _, x := range iv[1:] {
		if x.a <= cur.b {
			if x.b > cur.b {
				cur.b = x.b
			}
			continue
		}
		total += cur.b - cur.a
		cur = x
	}
	total += cur.b - cur.a
	return total
}

// BusyRatio is the §4.4 link-utilization metric: the fraction of
// [from, to) during which at least one frame above amplitudeThreshold
// volts was on air ("threshold based detection approach to calculate
// the ratio of idle channel time").
func BusyRatio(obs []sniffer.Observation, from, to time.Duration, amplitudeThreshold float64) float64 {
	if to <= from {
		return 0
	}
	var iv []interval
	for _, o := range obs {
		if o.AmplitudeV < amplitudeThreshold {
			continue
		}
		a, b := o.Start, o.End
		if b <= from || a >= to {
			continue
		}
		if a < from {
			a = from
		}
		if b > to {
			b = to
		}
		iv = append(iv, interval{a, b})
	}
	return float64(mergeIntervals(iv)) / float64(to-from)
}

// WindowOccupancy is the §4.1 "medium usage" metric of Fig. 11: the
// fraction of fixed-size trace windows that contain at least one data
// frame (each window models one oscilloscope capture).
func WindowOccupancy(obs []sniffer.Observation, from, to, window time.Duration) float64 {
	if to <= from || window <= 0 {
		return 0
	}
	n := int((to - from) / window)
	if n == 0 {
		return 0
	}
	hit := make([]bool, n)
	for _, o := range DataFrames(obs) {
		if o.End <= from || o.Start >= to {
			continue
		}
		i0 := int((maxDur(o.Start, from) - from) / window)
		i1 := int((minDur(o.End, to) - from - 1) / window)
		for i := i0; i <= i1 && i < n; i++ {
			if i >= 0 {
				hit[i] = true
			}
		}
	}
	count := 0
	for _, h := range hit {
		if h {
			count++
		}
	}
	return float64(count) / float64(n)
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

// Periodicity estimates the repeat interval of a frame class by the
// median gap between consecutive starts — the Table 1 measurement.
// Frames closer than minGap are treated as parts of one compound frame
// (the discovery sweep's sub-elements).
func Periodicity(obs []sniffer.Observation, class phy.FrameType, src int, minGap time.Duration) time.Duration {
	var starts []time.Duration
	for _, o := range obs {
		if o.Type != class {
			continue
		}
		if src >= 0 && o.Src != src {
			continue
		}
		if n := len(starts); n > 0 && o.Start-starts[n-1] < minGap {
			continue
		}
		starts = append(starts, o.Start)
	}
	if len(starts) < 2 {
		return 0
	}
	gaps := make([]float64, 0, len(starts)-1)
	for i := 1; i < len(starts); i++ {
		gaps = append(gaps, float64(starts[i]-starts[i-1]))
	}
	return time.Duration(stats.Median(gaps))
}

// CollisionEvents counts data frames that suffered interference overlap
// and retransmissions in the window — the annotations of Fig. 21.
func CollisionEvents(obs []sniffer.Observation) (collided, retries int) {
	for _, o := range DataFrames(obs) {
		if o.Collided {
			collided++
		}
		if o.Retry {
			retries++
		}
	}
	return collided, retries
}
