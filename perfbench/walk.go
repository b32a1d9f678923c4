package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"time"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/rf"
	"repro/internal/sim"
)

// The office-walk workload: beamforming and interference under
// mobility on a dense office floor. Each step moves the people, then
// makes three kinds of calls: one ray query per link (a sniffer's
// angular profile), a sector sweep per link with the best sector
// installed, and the interference matrix of every dock–station pair.
// The tracer, its spatial index and the medium's per-pair channel cache
// dominate it; the event loop is not involved.

const (
	walkRooms   = 16  // office rooms on the floor
	walkLinks   = 8   // dock–station pairs, one per even room
	walkWalkers = 8   // people moving on the floor
	walkSteps   = 150 // steps per round
	walkStride  = 0.25
	walkWidth   = 0.45 // shoulder width of a person, m
	walkMargin  = 0.3  // people keep this far from the outer walls
	// Every walkCheckEvery-th step, one link's ray query is kept and
	// re-traced after the timed phase by the brute-force reference.
	walkCheckEvery = 10
)

type walker struct {
	wall    int // index of the person's segment in the room
	pos     geom.Vec2
	heading float64
}

type walkScene struct {
	room     *geom.Room
	med      *sim.Medium
	docks    []*sim.Radio
	stations []*sim.Radio
	sniffers []geom.Vec2
	refs     [][]rf.PatternRef // per dock, its sectors at its boresight
	probes   []rf.PatternRef   // per station, its quasi-omni listening pattern
	walkers  []walker
	rng      *rand.Rand
	w, h     float64
	paths    []rf.Path
}

// buildWalk sets up the floor, the radios, the codebook and its pattern
// tables, and the first channel of every pair.
func buildWalk(seed uint64) (*walkScene, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	s := &walkScene{room: geom.OfficeFloor(walkRooms), rng: rng}
	corner := geom.OfficeCenter(walkRooms, walkRooms-1).Add(geom.V(2, 1.5))
	s.w, s.h = corner.X, corner.Y
	for k := 0; k < walkWalkers; k++ {
		p := geom.V(walkMargin+rng.Float64()*(s.w-2*walkMargin), walkMargin+rng.Float64()*(s.h-2*walkMargin))
		wk := walker{wall: len(s.room.Walls), pos: p, heading: rng.Float64() * 2 * math.Pi}
		seg := wk.segment()
		s.room.AddWall(seg.A, seg.B, "human")
		s.walkers = append(s.walkers, wk)
	}
	s.med = sim.NewMedium(sim.NewScheduler(), s.room, rf.FreqChannel2Hz, rf.DefaultBudget(), seed)
	_, cb := antenna.D5000Codebook(rf.FreqChannel2Hz, 1)
	for _, sec := range cb.Sectors {
		sec.Pattern.(*antenna.PhasedArray).LinearTable()
	}
	for _, q := range cb.QuasiOmni {
		q.(*antenna.PhasedArray).LinearTable()
	}
	// Radios sit in the upper band of their (even) room, which
	// OfficeFloor keeps clear of furniture, so only people obstruct a
	// link.
	jitter := func() float64 { return 0.3 * rng.Float64() }
	for i := 0; i < walkLinks; i++ {
		c := geom.OfficeCenter(walkRooms, 2*i)
		dock := s.med.AddRadio(&sim.Radio{Name: fmt.Sprintf("dock%d", i), Pos: c.Add(geom.V(-1.5+jitter(), 0.6+jitter())), TxPowerDBm: 10})
		sta := s.med.AddRadio(&sim.Radio{Name: fmt.Sprintf("sta%d", i), Pos: c.Add(geom.V(1.2+jitter(), 0.6+jitter())), TxPowerDBm: 10})
		s.docks = append(s.docks, dock)
		s.stations = append(s.stations, sta)
		s.sniffers = append(s.sniffers, c.Add(geom.V(-0.5+jitter(), 1.1)))
		s.refs = append(s.refs, cb.SectorRefs(nil, sta.Pos.Sub(dock.Pos).Angle()))
		s.probes = append(s.probes, antenna.Ref(cb.QuasiOmni[i%len(cb.QuasiOmni)], dock.Pos.Sub(sta.Pos).Angle()))
	}
	for i, sta := range s.stations {
		sta.SetRxPattern(s.probes[i])
	}
	// First channels: one full step without moving anyone.
	if err := s.step(nil, -1, nil, -1); err != nil {
		return nil, err
	}
	return s, nil
}

func (wk walker) segment() geom.Segment {
	half := geom.V(-math.Sin(wk.heading), math.Cos(wk.heading)).Scale(walkWidth / 2)
	return geom.Seg(wk.pos.Sub(half), wk.pos.Add(half))
}

// move advances every person one stride, turning a little at random and
// bouncing off the floor's outer bounds.
func (s *walkScene) move() {
	for k := range s.walkers {
		wk := &s.walkers[k]
		wk.heading += (s.rng.Float64() - 0.5)
		p := wk.pos.Add(geom.V(math.Cos(wk.heading), math.Sin(wk.heading)).Scale(walkStride))
		if p.X < walkMargin || p.X > s.w-walkMargin {
			wk.heading = math.Pi - wk.heading
			p.X = wk.pos.X
		}
		if p.Y < walkMargin || p.Y > s.h-walkMargin {
			wk.heading = -wk.heading
			p.Y = wk.pos.Y
		}
		wk.pos = p
		s.room.MoveWall(wk.wall, wk.segment())
	}
}

// walkSample is one ray query kept for the brute-force check.
type walkSample struct {
	walls  []geom.Wall
	tx, rx geom.Vec2
	got    []rf.Path
}

// walkStats accumulates a round's work counts and checks.
type walkStats struct {
	traces, paths, sweeps, rxCalls int
	digest                         hash.Hash64
	samples                        []walkSample
	bad                            []string
}

// step makes one step's calls after the people have moved: ray queries,
// sweeps with the best sector installed, and the interference matrix.
// Spans go to rec under parent; st, when non-nil, collects counts and
// the digest, and keeps link sampleLink's ray query for the brute-force
// check (-1 keeps none).
func (s *walkScene) step(rec *spanRecorder, parent int, st *walkStats, sampleLink int) error {
	tr := s.med.Tracer()
	sp := rec.begin("rf.trace", parent)
	for i, d := range s.docks {
		var err error
		if s.paths, err = tr.TraceAppend(s.paths[:0], d.Pos, s.sniffers[i]); err != nil {
			return err
		}
		if st != nil {
			st.traces++
			st.paths += len(s.paths)
			if i == sampleLink {
				st.samples = append(st.samples, walkSample{
					walls: append([]geom.Wall(nil), s.room.Walls...),
					tx:    d.Pos, rx: s.sniffers[i],
					got: clonePaths(s.paths),
				})
			}
		}
	}
	rec.end(sp)

	sp = rec.begin("sim.sweep", parent)
	for i, d := range s.docks {
		powers := s.med.SweepTxPowerDBm(d, s.stations[i], s.refs[i], &s.probes[i])
		best := 0
		for k, p := range powers {
			if p > powers[best] {
				best = k
			}
		}
		d.SetTxPattern(s.refs[i][best])
		if st != nil {
			st.sweeps++
			if p := powers[best]; math.IsInf(p, 0) || math.IsNaN(p) {
				st.bad = append(st.bad, fmt.Sprintf("office-walk: link %d best sector power %v", i, p))
			}
			digestUint(st.digest, uint64(best))
			digestUint(st.digest, math.Float64bits(powers[best]))
		}
	}
	rec.end(sp)

	sp = rec.begin("sim.rx_power", parent)
	for _, d := range s.docks {
		for _, sta := range s.stations {
			p := s.med.RxPowerDBm(d, sta)
			if st != nil {
				st.rxCalls++
				if math.IsNaN(p) {
					st.bad = append(st.bad, fmt.Sprintf("office-walk: %s→%s power is NaN", d.Name, sta.Name))
				}
				digestUint(st.digest, math.Float64bits(p))
			}
		}
	}
	rec.end(sp)
	return nil
}

func digestUint(h hash.Hash64, v uint64) {
	h.Write(binary.LittleEndian.AppendUint64(nil, v))
}

// pathsEqual reports whether two path sets are identical, field by
// field and point by point.
func pathsEqual(a, b []rf.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func clonePaths(ps []rf.Path) []rf.Path {
	out := make([]rf.Path, len(ps))
	for i, p := range ps {
		out[i] = p
		out[i].Points = append([]geom.Vec2(nil), p.Points...)
	}
	return out
}

func runWalkRound(cfg roundConfig) (roundResult, error) {
	res := roundResult{Layers: map[string]float64{}}
	s, err := buildWalk(cfg.seed)
	if err != nil {
		return res, err
	}
	var rec *spanRecorder
	if cfg.traced {
		rec = newSpanRecorder()
	}
	st := &walkStats{digest: fnv.New64a()}

	res.ReadyNs = time.Now().UnixNano()
	prof, err := startProfile(cfg.traced)
	if err != nil {
		return res, err
	}
	p0 := readProbe()
	for k := 0; k < walkSteps; k++ {
		t0 := time.Now()
		root := rec.begin("walk.step", -1)
		sp := rec.begin("geom.move", root)
		s.move()
		rec.end(sp)
		sample := -1
		if k%walkCheckEvery == 0 {
			sample = (k / walkCheckEvery) % walkLinks
		}
		nbad := len(st.bad)
		if err := s.step(rec, root, st, sample); err != nil {
			return res, err
		}
		rec.end(root)
		res.Latencies = append(res.Latencies, time.Since(t0).Seconds())
		res.Attempted++
		if len(st.bad) > nbad {
			res.Failed++
		}
	}
	p0.record(readProbe(), &res)
	if err := prof.stop(&res); err != nil {
		return res, err
	}
	res.Units = walkSteps
	res.Failures = append(res.Failures, st.bad...)
	res.Digest = fmt.Sprintf("%016x", st.digest.Sum64())

	// The brute-force reference must return the identical path set.
	for _, smp := range st.samples {
		res.Attempted++
		ref := rf.NewTracer(&geom.Room{Walls: smp.walls}, s.med.Tracer().FreqHz)
		ref.MaxOrder, ref.MaxLossDB, ref.Naive = s.med.Tracer().MaxOrder, s.med.Tracer().MaxLossDB, true
		want, err := ref.Trace(smp.tx, smp.rx)
		if err != nil || !pathsEqual(want, smp.got) {
			res.fail("office-walk: indexed trace %v→%v differs from the brute-force reference (err %v)", smp.tx, smp.rx, err)
		}
	}

	res.Layers["rf.traces"] = float64(st.traces)
	res.Layers["rf.paths_per_trace"] = float64(st.paths) / float64(st.traces)
	res.Layers["sim.sweeps"] = float64(st.sweeps)
	res.Layers["sim.rx_power_calls"] = float64(st.rxCalls)
	if rec != nil {
		self := selfTimes(rec.spans)
		res.Layers["geom.move_s"] = self["geom.move"].Seconds()
		res.Layers["rf.trace_s"] = self["rf.trace"].Seconds()
		res.Layers["sim.sweep_s"] = self["sim.sweep"].Seconds()
		res.Layers["sim.rx_power_s"] = self["sim.rx_power"].Seconds()
		res.Layers["trace.self_s"] = self["walk.step"].Seconds()
	}
	return res, saveSpans(rec, cfg, "office-walk", &res)
}
