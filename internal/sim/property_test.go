package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/rf"
)

// TestSchedulerOrderProperty: whatever order events are scheduled in,
// they fire in nondecreasing time order, and same-time events fire in
// scheduling (FIFO) order.
func TestSchedulerOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		if len(offsets) == 0 {
			return true
		}
		if len(offsets) > 200 {
			offsets = offsets[:200]
		}
		s := NewScheduler()
		type fired struct {
			at  Time
			seq int
		}
		var log []fired
		for i, off := range offsets {
			i := i
			at := Time(off) * time.Microsecond
			s.At(at, func() { log = append(log, fired{s.Now(), i}) })
		}
		s.Run(time.Second)
		if len(log) != len(offsets) {
			return false
		}
		for i := 1; i < len(log); i++ {
			if log[i].at < log[i-1].at {
				return false
			}
			if log[i].at == log[i-1].at && log[i].seq < log[i-1].seq {
				return false
			}
		}
		// The fired times must be exactly the scheduled multiset.
		want := make([]int, len(offsets))
		for i, off := range offsets {
			want[i] = int(off)
		}
		got := make([]int, len(log))
		for i, l := range log {
			got[i] = int(l.at / time.Microsecond)
		}
		sort.Ints(want)
		sort.Ints(got)
		for i := range want {
			if want[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSchedulerCancelProperty: canceling an arbitrary subset prevents
// exactly that subset from firing.
func TestSchedulerCancelProperty(t *testing.T) {
	f := func(offsets []uint16, cancelMask []bool) bool {
		if len(offsets) > 100 {
			offsets = offsets[:100]
		}
		s := NewScheduler()
		firedCount := 0
		canceled := 0
		var timers []Timer
		for i, off := range offsets {
			timers = append(timers, s.At(Time(off)*time.Microsecond, func() { firedCount++ }))
			if i < len(cancelMask) && cancelMask[i] {
				timers[i].Cancel()
				canceled++
			}
		}
		s.Run(time.Second)
		return firedCount == len(offsets)-canceled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPairSlabProperty drives the medium's pair entries through seeded
// sequences of every operation that touches them — logged wall moves,
// radio moves, bare InvalidateRadio, link-offset reads and writes,
// registering a radio after pairs are cached, structural edits, beam
// switches and a radio move resolved by InvalidateChannels — and after every operation checks
// every pair in both orientations: the cached power must match the
// scalar reference over a fresh trace of the current geometry, and no
// operation except SetLinkOffset may change a drawn shadowing offset.
func TestPairSlabProperty(t *testing.T) {
	_, cb := antenna.D5000Codebook(rf.FreqChannel2Hz, 3)
	// Heat every pattern up front so the kernels and the scalar reference
	// read the same gain tables from the first evaluation on (the lazy
	// LUT build is a pattern-side change no pair entry tracks).
	for _, s := range cb.Sectors {
		s.Pattern.(*antenna.PhasedArray).LinearTable()
	}
	for _, q := range cb.QuasiOmni {
		q.(*antenna.PhasedArray).LinearTable()
	}
	for seed := int64(1); seed <= 12; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		pt := func() geom.Vec2 { return geom.V(rnd.Float64()*10, rnd.Float64()*6) }
		room := geom.Box(-1, -1, 11, 7, "drywall")
		room.AddWall(geom.V(2, 3), geom.V(6, 3.5), "glass")
		var walkers []int
		for i := 0; i < 3; i++ {
			p := pt()
			room.AddObstacle(p, p.Add(geom.V(0, 0.5)), "human")
			walkers = append(walkers, len(room.Walls)-1)
		}
		m, r := testMedium(room, 3)
		m.FadingSigmaDB = 0
		beam := func(rad *Radio) {
			if rnd.Intn(3) == 0 {
				return // keep whatever gain it has (isotropic when fresh)
			}
			bore := rnd.Float64() * 2 * math.Pi
			rad.SetTxPattern(antenna.Ref(cb.Sectors[rnd.Intn(len(cb.Sectors))].Pattern, bore))
			rad.SetRxPattern(antenna.Ref(cb.QuasiOmni[rnd.Intn(len(cb.QuasiOmni))], bore))
		}
		for _, rad := range r {
			rad.Pos = pt()
			beam(rad)
		}

		offsets := map[[2]int]float64{}
		check := func(op string) {
			t.Helper()
			for k, want := range offsets {
				if got := m.LinkOffset(k[0], k[1]); got != want {
					t.Fatalf("seed %d, %s: offset of pair %v changed %v -> %v", seed, op, k, want, got)
				}
			}
			for _, tx := range r {
				for _, rx := range r {
					if tx == rx {
						continue
					}
					got, want := m.RxPowerDBm(tx, rx), scalarRxPowerDBm(m, tx, rx)
					if math.IsInf(want, -1) && math.IsInf(got, -1) {
						continue
					}
					if d := math.Abs(got - want); !(d <= rf.BatchEpsilonDB) {
						t.Fatalf("seed %d, %s: %s→%s cached %.6f vs fresh scalar %.6f dBm",
							seed, op, tx.Name, rx.Name, got, want)
					}
				}
			}
			for _, a := range r {
				for _, b := range r[a.ID+1:] {
					offsets[[2]int{a.ID, b.ID}] = m.LinkOffset(a.ID, b.ID)
				}
			}
		}
		check("start")
		for step := 0; step < 40; step++ {
			var op string
			switch k := rnd.Intn(10); {
			case k < 3:
				op = "MoveWall"
				p := pt()
				room.MoveWall(walkers[rnd.Intn(len(walkers))], geom.Seg(p, p.Add(geom.V(0, 0.5))))
			case k == 3:
				op = "move radio"
				rad := r[rnd.Intn(len(r))]
				rad.Pos = pt()
				m.InvalidateRadio(rad.ID)
			case k == 4:
				op = "InvalidateRadio"
				m.InvalidateRadio(rnd.Intn(len(r)))
			case k == 5:
				op = "SetLinkOffset"
				a := rnd.Intn(len(r))
				b := (a + 1 + rnd.Intn(len(r)-1)) % len(r)
				v := m.LinkOffset(a, b) + rnd.NormFloat64()*3
				m.SetLinkOffset(a, b, v)
				if a > b {
					a, b = b, a
				}
				offsets[[2]int{a, b}] = v
			case k == 6 && len(r) < 7:
				op = "AddRadio"
				rad := m.AddRadio(&Radio{Name: string(rune('a' + len(r))), Pos: pt()})
				beam(rad)
				r = append(r, rad)
				// A fresh pair's offset is drawn by LinkOffset or by its
				// first power read, whichever comes first.
				if rnd.Intn(2) == 0 {
					m.LinkOffset(rad.ID, rnd.Intn(rad.ID))
				}
			case k == 7:
				op = "AddWall"
				room.AddWall(pt(), pt(), "metal")
			case k == 8:
				op = "beam switch"
				beam(r[rnd.Intn(len(r))])
			default:
				op = "InvalidateChannels"
				r[rnd.Intn(len(r))].Pos = pt()
				m.InvalidateChannels()
			}
			check(op)
		}
	}
}
