package rf

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/mat"
)

// The spatial index's contract is byte-identity: for any room and any
// endpoint pair, the indexed tracer must return exactly the path set the
// retained naive reference (naive.go) returns — same paths, same order,
// bit-identical floats. These tests enforce that on the paper rooms, on
// generated office floors, and on randomized rooms under MoveWall edits,
// including moves that carry a wall outside the room's initial bounds.

func equivRandRoom(rng *rand.Rand, walls int) *geom.Room {
	mats := []string{"brick", "drywall", "glass", "wood", "metal"}
	r := &geom.Room{}
	for i := 0; i < walls; i++ {
		a := geom.V(rng.Float64()*15, rng.Float64()*12)
		b := geom.V(rng.Float64()*15, rng.Float64()*12)
		switch rng.Intn(4) {
		case 0:
			b.Y = a.Y
		case 1:
			b.X = a.X
		}
		if a == b {
			b = a.Add(geom.V(0.3, 0.2))
		}
		m := mats[rng.Intn(len(mats))]
		if rng.Intn(5) == 0 {
			r.AddObstacle(a, b, m)
		} else {
			r.AddWall(a, b, m)
		}
	}
	return r
}

func pathsIdentical(a, b []Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		pa, pb := a[i], b[i]
		if pa.LossDB != pb.LossDB || pa.AoD != pb.AoD || pa.AoA != pb.AoA ||
			pa.Length != pb.Length || pa.Order != pb.Order ||
			len(pa.Points) != len(pb.Points) {
			return false
		}
		for k := range pa.Points {
			if pa.Points[k] != pb.Points[k] {
				return false
			}
		}
	}
	return true
}

func assertTraceIdentical(t *testing.T, indexed, naive *Tracer, tx, rx geom.Vec2, ctx string) {
	t.Helper()
	got, err1 := indexed.Trace(tx, rx)
	want, err2 := naive.Trace(tx, rx)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("%s: indexed err=%v naive err=%v", ctx, err1, err2)
	}
	if !pathsIdentical(got, want) {
		t.Fatalf("%s: indexed %d paths != naive %d paths for %v→%v\nindexed: %v\nnaive: %v",
			ctx, len(got), len(want), tx, rx, got, want)
	}
}

// TestIndexedTracerMatchesNaivePaperRooms pins the index to the naive
// reference on the hand-built paper scenarios.
func TestIndexedTracerMatchesNaivePaperRooms(t *testing.T) {
	rooms := map[string]*geom.Room{
		"conference": geom.ConferenceRoom(),
		"box":        geom.Box(0, 0, 7, 5, "brick"),
		"office4":    geom.OfficeFloor(4),
		"office16":   geom.OfficeFloor(16),
	}
	rng := rand.New(rand.NewSource(3))
	for name, room := range rooms {
		indexed := NewTracer(room, 60e9)
		naive := NewTracer(room, 60e9)
		naive.Naive = true
		for q := 0; q < 25; q++ {
			tx := geom.V(rng.Float64()*8, rng.Float64()*6)
			rx := geom.V(rng.Float64()*8, rng.Float64()*6)
			assertTraceIdentical(t, indexed, naive, tx, rx, name)
		}
	}
}

// TestIndexedTracerMatchesNaiveRandomized is the core metamorphic
// relation: across randomized rooms — including degenerate collinear and
// axis-aligned wall clusters — the indexed path set is byte-identical to
// the naive one, before and after MoveWall edits. The last rounds move
// walls past the room's initial bounding box (wholly or straddling it),
// so the grid must re-fit its bounds on rebuild.
func TestIndexedTracerMatchesNaiveRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 45; round++ {
		room := equivRandRoom(rng, 3+rng.Intn(25))
		// Inject collinear axis-aligned pairs to hit the exact-drop cull.
		y := math.Floor(rng.Float64() * 10)
		room.AddWall(geom.V(1, y), geom.V(4, y), "wood")
		room.AddWall(geom.V(6, y), geom.V(9, y), "wood")
		indexed := NewTracer(room, 60e9)
		naive := NewTracer(room, 60e9)
		naive.Naive = true
		query := func(ctx string) {
			for q := 0; q < 8; q++ {
				tx := geom.V(rng.Float64()*16-1, rng.Float64()*13-1)
				rx := geom.V(rng.Float64()*16-1, rng.Float64()*13-1)
				assertTraceIdentical(t, indexed, naive, tx, rx, ctx)
			}
		}
		query("static")
		// Wall moves, re-queried each step so the indexed tracer
		// re-syncs its index after every epoch change.
		for step := 0; step < 6; step++ {
			wi := rng.Intn(len(room.Walls))
			a := geom.V(rng.Float64()*15, rng.Float64()*12)
			b := a.Add(geom.V(rng.Float64()*4+0.1, rng.Float64()*4+0.1))
			if round >= 30 {
				a, b = escapeSeg(rng)
			}
			room.MoveWall(wi, geom.Seg(a, b))
			query("after MoveWall")
		}
		// Structural edit: forces full index rebuilds.
		room.AddWall(geom.V(rng.Float64()*15, 0), geom.V(rng.Float64()*15, 12), "glass")
		query("after AddWall")
	}
}

// escapeSeg draws a segment that leaves the 15×12 m box equivRandRoom
// fills: wholly outside it or straddling its edge.
func escapeSeg(rng *rand.Rand) (a, b geom.Vec2) {
	a = geom.V(rng.Float64()*40-12, rng.Float64()*36-12)
	if a.X >= 0 && a.X <= 15 && a.Y >= 0 && a.Y <= 12 {
		a = a.Add(geom.V(28, 0))
	}
	b = a.Add(geom.V(rng.Float64()*16-8, rng.Float64()*16-8))
	return a, b
}

// TestPairAffectedMatchesNaive pins the indexed invalidation predicate to
// the brute-force enumeration across randomized rooms and move batches.
// The last rounds move walls past the room's initial bounding box.
func TestPairAffectedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 60; round++ {
		room := equivRandRoom(rng, 4+rng.Intn(20))
		indexed := NewTracer(room, 60e9)
		naive := NewTracer(room, 60e9)
		naive.Naive = true
		epoch := room.Epoch()
		nMoves := 1 + rng.Intn(3)
		for m := 0; m < nMoves; m++ {
			wi := rng.Intn(len(room.Walls))
			a := geom.V(rng.Float64()*15, rng.Float64()*12)
			b := a.Add(geom.V(1.5, 0.7))
			if round >= 40 {
				a, b = escapeSeg(rng)
			}
			room.MoveWall(wi, geom.Seg(a, b))
		}
		moves, complete := room.MovesSince(epoch)
		if !complete {
			t.Fatalf("round %d: move log incomplete", round)
		}
		for q := 0; q < 15; q++ {
			tx := geom.V(rng.Float64()*15, rng.Float64()*12)
			rx := geom.V(rng.Float64()*15, rng.Float64()*12)
			got := indexed.PairAffected(tx, rx, moves)
			want := naive.PairAffected(tx, rx, moves)
			if got != want {
				t.Fatalf("round %d: PairAffected indexed=%v naive=%v for %v→%v moves=%v",
					round, got, want, tx, rx, moves)
			}
		}
	}
}

// TestTraceAppendZeroAlloc enforces the hot-path allocation contract:
// once warm, TraceAppend reusing surrendered storage allocates nothing.
func TestTraceAppendZeroAlloc(t *testing.T) {
	room := geom.OfficeFloor(16)
	tr := NewTracer(room, 60e9)
	tx, rx := geom.OfficeCenter(16, 0), geom.OfficeCenter(16, 5)
	ps, err := tr.TraceAppend(nil, tx, rx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) == 0 {
		t.Fatal("no paths traced; benchmark scenario is degenerate")
	}
	allocs := testing.AllocsPerRun(200, func() {
		ps, _ = tr.TraceAppend(ps[:0], tx, rx)
	})
	if allocs != 0 {
		t.Fatalf("TraceAppend allocates %v per run in steady state, want 0", allocs)
	}
	// A wall move keeps the steady state alloc-free too: the index
	// rebuild reuses its storage once it has warmed up.
	orig := room.Walls[5].Segment
	moved := geom.Seg(orig.A.Add(geom.V(0.05, 0)), orig.B.Add(geom.V(0.05, 0)))
	room.MoveWall(5, moved)
	ps, _ = tr.TraceAppend(ps[:0], tx, rx)
	room.MoveWall(5, orig)
	ps, _ = tr.TraceAppend(ps[:0], tx, rx)
	flip := false
	allocs = testing.AllocsPerRun(100, func() {
		if flip {
			room.MoveWall(5, moved)
		} else {
			room.MoveWall(5, orig)
		}
		flip = !flip
		ps, _ = tr.TraceAppend(ps[:0], tx, rx)
	})
	if allocs != 0 {
		t.Fatalf("TraceAppend after MoveWall allocates %v per run, want 0", allocs)
	}
}

// TestPairAffectedZeroAlloc: the invalidation predicate runs once per
// cached pair per room edit, so it must not allocate either.
func TestPairAffectedZeroAlloc(t *testing.T) {
	room := geom.OfficeFloor(16)
	tr := NewTracer(room, 60e9)
	epoch := room.Epoch()
	orig := room.Walls[7].Segment
	room.MoveWall(7, geom.Seg(orig.A.Add(geom.V(0.1, 0)), orig.B.Add(geom.V(0.1, 0))))
	moves, _ := room.MovesSince(epoch)
	tx, rx := geom.OfficeCenter(16, 1), geom.OfficeCenter(16, 9)
	tr.PairAffected(tx, rx, moves)
	allocs := testing.AllocsPerRun(100, func() {
		tr.PairAffected(tx, rx, moves)
	})
	if allocs != 0 {
		t.Fatalf("PairAffected allocates %v per run, want 0", allocs)
	}
}

// TestMaterialEditPickedUp is the satellite regression test: registering
// (or redefining) a material after the tracer has already resolved its
// wall slab must be picked up on the next trace, via Registry.Rev.
func TestMaterialEditPickedUp(t *testing.T) {
	reg := mat.NewRegistry()
	reg.Register(mat.Material{Name: "glass", ReflectLossDB: 6, PenetrationLossDB: 8})
	room := geom.Box(0, 0, 10, 8, "glass")
	room.AddWall(geom.V(3, 0), geom.V(3, 8), "glass")
	tr := NewTracer(room, 60e9)
	tr.Materials = reg
	tx, rx := geom.V(1, 4), geom.V(9, 4)
	before, err := tr.Trace(tx, rx)
	if err != nil {
		t.Fatal(err)
	}
	// Redefine glass as much lossier to penetrate; the LOS path crossing
	// the interior wall must get heavier.
	reg.Register(mat.Material{Name: "glass", ReflectLossDB: 6, PenetrationLossDB: 30})
	after, err := tr.Trace(tx, rx)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 || len(after) == 0 {
		t.Fatal("expected paths before and after material edit")
	}
	if !(after[0].LossDB > before[0].LossDB+20) {
		t.Fatalf("material redefinition not picked up: LOS loss %.2f dB before, %.2f dB after",
			before[0].LossDB, after[0].LossDB)
	}
	// And a registration fixing a previously unknown material must flip
	// the tracer from error to success.
	room2 := geom.Box(0, 0, 5, 5, "mystery")
	tr2 := NewTracer(room2, 60e9)
	tr2.Materials = reg
	if _, err := tr2.Trace(geom.V(1, 1), geom.V(4, 4)); err == nil {
		t.Fatal("expected unknown-material error")
	}
	reg.Register(mat.Material{Name: "mystery", ReflectLossDB: 5, PenetrationLossDB: 10})
	if _, err := tr2.Trace(geom.V(1, 1), geom.V(4, 4)); err != nil {
		t.Fatalf("material registered after failure still errors: %v", err)
	}
}

// TestGeometryErrorShape checks the typed error the campaign layer
// classifies: it must wrap the underlying mat error and carry endpoints.
func TestGeometryErrorShape(t *testing.T) {
	room := geom.Box(0, 0, 5, 5, "unobtainium")
	tr := NewTracer(room, 60e9)
	_, err := tr.Trace(geom.V(1, 1), geom.V(2, 2))
	if err == nil {
		t.Fatal("expected error")
	}
	ge, ok := err.(*GeometryError)
	if !ok {
		t.Fatalf("error type %T, want *GeometryError", err)
	}
	if ge.Unwrap() == nil {
		t.Fatal("GeometryError must wrap the cause")
	}
	if ge.Tx != geom.V(1, 1) || ge.Rx != geom.V(2, 2) {
		t.Fatalf("GeometryError endpoints %v→%v", ge.Tx, ge.Rx)
	}
	// The naive reference must fail identically.
	tr.Naive = true
	_, nerr := tr.Trace(geom.V(1, 1), geom.V(2, 2))
	if nerr == nil || nerr.Error() != err.Error() {
		t.Fatalf("naive error %v != indexed error %v", nerr, err)
	}
}
