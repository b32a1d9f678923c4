package sim

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rf"
)

func testMedium(room *geom.Room, n int) (*Medium, []*Radio) {
	s := NewScheduler()
	m := NewMedium(s, room, rf.FreqChannel2Hz, rf.DefaultBudget(), 11)
	radios := make([]*Radio, n)
	for i := range radios {
		radios[i] = m.AddRadio(&Radio{Name: string(rune('a' + i))})
	}
	return m, radios
}

// cached reports whether the pair's channel entry is built.
func (m *Medium) cached(a, b *Radio) bool { return m.pairs[pairIndex(a.ID, b.ID)].built }

// cachedPairs counts the built pair entries.
func (m *Medium) cachedPairs() int {
	n := 0
	for i := range m.pairs {
		if m.pairs[i].built {
			n++
		}
	}
	return n
}

// The reversed bundle, read in the reverse direction, must be the exact
// mirror of the canonical one: same per-path weights, departure and
// arrival angles swapped, and reciprocal received power.
func TestChannelReciprocity(t *testing.T) {
	room := geom.Open()
	room.AddWall(geom.V(-3, 2), geom.V(8, 2), "metal")
	room.AddWall(geom.V(-3, -1.5), geom.V(8, -1.5), "glass")
	m, r := testMedium(room, 2)
	r[0].Pos = geom.V(0, 0)
	r[1].Pos = geom.V(5, 0.7)

	// Reciprocity at the power level with isotropic patterns: identical.
	pf := m.RxPowerDBm(r[0], r[1])
	pb := m.RxPowerDBm(r[1], r[0])
	if math.Abs(pf-pb) > 1e-9 {
		t.Errorf("received power not reciprocal: %v vs %v dBm", pf, pb)
	}
	e := &m.pairs[pairIndex(r[0].ID, r[1].ID)]
	if !e.built || !e.revBuilt {
		t.Fatalf("entry not built in both orientations (built=%v rev=%v)", e.built, e.revBuilt)
	}
	fwd, rev := &e.fwd, &e.rev
	if fwd.Len() == 0 || fwd.Len() != rev.Len() || fwd.Len() != len(e.paths) {
		t.Fatalf("ray counts: fwd %d, rev %d, paths %d", fwd.Len(), rev.Len(), len(e.paths))
	}
	for i := range fwd.WLin {
		if fwd.WLin[i] != rev.WLin[i] {
			t.Errorf("ray %d: weights not reciprocal: %v vs %v", i, fwd.WLin[i], rev.WLin[i])
		}
		if fwd.AoD[i] != rev.AoA[i] || fwd.AoA[i] != rev.AoD[i] {
			t.Errorf("ray %d: angles not swapped: fwd AoD=%v AoA=%v, rev AoD=%v AoA=%v",
				i, fwd.AoD[i], fwd.AoA[i], rev.AoD[i], rev.AoA[i])
		}
		if fwd.AoD[i] != e.paths[i].AoD || fwd.AoA[i] != e.paths[i].AoA {
			t.Errorf("ray %d: canonical bundle angles differ from its path", i)
		}
	}
	if fwd.SumDb != rev.SumDb {
		t.Errorf("gain ceilings differ: %v vs %v dB", fwd.SumDb, rev.SumDb)
	}
}

// InvalidateRadio must drop exactly the pairs touching that radio.
func TestInvalidateRadioSelective(t *testing.T) {
	m, r := testMedium(geom.Open(), 3)
	r[0].Pos, r[1].Pos, r[2].Pos = geom.V(0, 0), geom.V(3, 0), geom.V(0, 4)
	m.RxPowerDBm(r[0], r[1])
	m.RxPowerDBm(r[0], r[2])
	m.RxPowerDBm(r[1], r[2])
	if n := m.cachedPairs(); n != 3 {
		t.Fatalf("cache primed with %d pairs, want 3", n)
	}
	m.InvalidateRadio(r[0].ID)
	if n := m.cachedPairs(); n != 1 {
		t.Fatalf("cache holds %d pairs after InvalidateRadio, want 1", n)
	}
	if !m.cached(r[1], r[2]) {
		t.Error("the pair not touching the moved radio was dropped")
	}
}

// A logged wall move must invalidate only the pairs the moved segment
// can affect; a structural edit must drop the whole cache.
func TestSyncRoomSelectiveInvalidation(t *testing.T) {
	room := geom.Open()
	room.AddObstacle(geom.V(1.5, -1), geom.V(1.5, -0.5), "human")
	walker := len(room.Walls) - 1
	m, r := testMedium(room, 4)
	// Pair (0,1) straddles the walker's track; pair (2,3) lives far away.
	r[0].Pos, r[1].Pos = geom.V(0, 0), geom.V(3, 0)
	r[2].Pos, r[3].Pos = geom.V(40, 40), geom.V(43, 40)
	m.RxPowerDBm(r[0], r[1])
	m.RxPowerDBm(r[2], r[3])
	if n := m.cachedPairs(); n != 2 {
		t.Fatalf("cache primed with %d pairs, want 2", n)
	}

	// Walk the blocker onto the near pair's line of sight.
	room.MoveWall(walker, geom.Seg(geom.V(1.5, -0.2), geom.V(1.5, 0.3)))
	m.syncRoom()
	if m.cached(r[0], r[1]) {
		t.Error("pair crossed by the moved blocker survived the move")
	}
	if !m.cached(r[2], r[3]) {
		t.Error("distant pair was needlessly invalidated")
	}

	// The re-traced channel must reflect the new geometry: the blocker
	// now sits on the LOS, so the direct path is heavily attenuated.
	before := m.RxPowerDBm(r[0], r[1])
	room.MoveWall(walker, geom.Seg(geom.V(1.5, 5), geom.V(1.5, 5.5)))
	after := m.RxPowerDBm(r[0], r[1])
	if after <= before+10 {
		t.Errorf("moving the blocker off the LOS should restore the link: %v -> %v dBm", before, after)
	}

	// Structural edit: everything goes.
	m.RxPowerDBm(r[2], r[3])
	room.AddWall(geom.V(-5, 50), geom.V(5, 50), "glass")
	m.syncRoom()
	if n := m.cachedPairs(); n != 0 {
		t.Errorf("structural edit left %d cached pairs", n)
	}
}

// TestBlockageWalkSteadyStateAllocFree pins the cost of the paper's
// blockage-walker pattern (experiment X1): once the pair entry is warm,
// a wall move plus the selective invalidation plus the re-trace and
// bundle rebuild of the affected pair, read in both orientations, must
// not allocate — the entry's own path and bundle storage is reused
// through rf.Tracer.TraceAppend.
func TestBlockageWalkSteadyStateAllocFree(t *testing.T) {
	room := geom.Open()
	room.AddWall(geom.V(-3, 2), geom.V(8, 2), "metal")
	room.AddObstacle(geom.V(1.5, -1), geom.V(1.5, -0.5), "human")
	walker := len(room.Walls) - 1
	m, r := testMedium(room, 2)
	r[0].Pos, r[1].Pos = geom.V(0, 0), geom.V(3, 0)

	// Warm both move positions and both orientations.
	positions := []geom.Segment{
		geom.Seg(geom.V(1.5, -0.2), geom.V(1.5, 0.3)),
		geom.Seg(geom.V(1.5, -1), geom.V(1.5, -0.5)),
	}
	for i := 0; i < 4; i++ {
		room.MoveWall(walker, positions[i%2])
		m.RxPowerDBm(r[0], r[1])
		m.RxPowerDBm(r[1], r[0])
	}
	e := &m.pairs[pairIndex(r[0].ID, r[1].ID)]
	step := 0
	allocs := testing.AllocsPerRun(200, func() {
		room.MoveWall(walker, positions[step%2])
		step++
		m.RxPowerDBm(r[0], r[1])
		if len(e.paths) == 0 {
			t.Fatal("channel lost its paths")
		}
		m.RxPowerDBm(r[1], r[0])
	})
	if allocs != 0 {
		t.Fatalf("blockage-walk steady state allocates %v per step, want 0", allocs)
	}
}

// InvalidateChannels still works as the blunt instrument and resyncs the
// epoch so a pending room change is not double-processed.
func TestInvalidateChannelsResyncsEpoch(t *testing.T) {
	room := geom.Open()
	room.AddObstacle(geom.V(1, -1), geom.V(1, 1), "human")
	m, r := testMedium(room, 2)
	r[0].Pos, r[1].Pos = geom.V(0, 0), geom.V(3, 0)
	m.RxPowerDBm(r[0], r[1])
	room.MoveWall(0, geom.Seg(geom.V(1.2, -1), geom.V(1.2, 1)))
	m.InvalidateChannels()
	if m.cachedPairs() != 0 {
		t.Fatal("InvalidateChannels left cached pairs")
	}
	if m.roomEpoch != room.Epoch() {
		t.Error("InvalidateChannels did not resync the room epoch")
	}
}
