package sim

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/phy"
)

// A scheduler whose wall budget expires mid-run must panic with a
// *DeadlineError at an event boundary, leaving the event state
// consistent (no half-executed callback).
func TestWallBudgetTripsDeadline(t *testing.T) {
	s := NewScheduler()
	s.SetWallBudget(time.Now(), 20*time.Millisecond)
	// A self-rescheduling busy event that burns real time: the watchdog
	// checks every DefaultWatchdogEvery events, so keep them cheap and
	// numerous.
	var tick func()
	n := 0
	tick = func() {
		n++
		s.After(time.Nanosecond, tick)
	}
	s.After(0, tick)
	defer func() {
		r := recover()
		var de *DeadlineError
		if err, ok := r.(error); !ok || !errors.As(err, &de) {
			t.Fatalf("recovered %T (%v), want *DeadlineError", r, r)
		}
		if de.Budget != 20*time.Millisecond || de.Elapsed < de.Budget {
			t.Errorf("deadline fields inconsistent: %+v", de)
		}
		if n == 0 {
			t.Error("no events ran before the trip")
		}
	}()
	s.Run(time.Hour)
	t.Fatal("run completed despite the watchdog")
}

func TestZeroBudgetNeverTrips(t *testing.T) {
	s := NewScheduler()
	ran := 0
	var tick func()
	tick = func() {
		ran++
		if ran < 3*DefaultWatchdogEvery {
			s.After(time.Nanosecond, tick)
		}
	}
	s.After(0, tick)
	s.Run(time.Hour)
	if ran != 3*DefaultWatchdogEvery {
		t.Errorf("ran %d events, want %d", ran, 3*DefaultWatchdogEvery)
	}
}

// Schedulers armed with one start share one wall clock: a second
// scheduler created after the first has spent most of the budget trips
// on the time both have used together, not on its own share.
func TestSharedWallClockAcrossSchedulers(t *testing.T) {
	const budget = 100 * time.Millisecond
	start := time.Now()
	burn := func(s *Scheduler, d time.Duration) {
		until := time.Now().Add(d)
		var tick func()
		tick = func() {
			if time.Now().Before(until) {
				s.After(time.Nanosecond, tick)
			}
		}
		s.After(0, tick)
		s.Run(time.Hour)
	}
	armed := func() *Scheduler {
		s := NewScheduler()
		s.SetWallBudget(start, budget)
		return s
	}
	burn(armed(), budget/2)

	second := armed()
	secondStart := time.Now()
	defer func() {
		de, ok := recover().(*DeadlineError)
		if !ok {
			t.Fatal("second scheduler did not trip on the shared clock")
		}
		if de.Elapsed < budget {
			t.Errorf("Elapsed %v below the %v budget", de.Elapsed, budget)
		}
		if own := time.Since(secondStart); own >= budget {
			t.Errorf("second scheduler ran %v on its own, a full budget: the clock was not shared", own)
		}
	}()
	burn(second, time.Minute)
	t.Fatal("run completed despite the spent shared budget")
}

// A scheduler whose budget is already spent refuses to run at all: Run
// checks the clock on entry, so a sweep point too short to reach the
// first periodic check cannot outlive its experiment's deadline.
func TestWallBudgetCheckedOnRunEntry(t *testing.T) {
	s := NewScheduler()
	s.SetWallBudget(time.Now().Add(-time.Second), time.Millisecond)
	ran := false
	s.After(0, func() { ran = true })
	defer func() {
		de, ok := recover().(*DeadlineError)
		if !ok {
			t.Fatal("spent budget did not trip on entry")
		}
		if ran || de.SimTime != 0 || de.Elapsed < time.Second {
			t.Errorf("trip on entry: ran=%v SimTime=%v Elapsed=%v", ran, de.SimTime, de.Elapsed)
		}
	}()
	s.Run(time.Hour)
	t.Fatal("run completed despite the spent budget")
}

// Between entry checks the watchdog looks at the clock exactly every
// DefaultWatchdogEvery events: an overrun during the first event is
// noticed at event DefaultWatchdogEvery, before that event's callback.
func TestWatchdogChecksAtConstantCadence(t *testing.T) {
	const budget = 20 * time.Millisecond
	s := NewScheduler()
	s.SetWallBudget(time.Now(), budget)
	calls := 0
	var tick func()
	tick = func() {
		calls++
		if calls == 1 {
			time.Sleep(budget + 5*time.Millisecond)
		}
		s.After(time.Microsecond, tick)
	}
	s.After(0, tick)
	defer func() {
		de, ok := recover().(*DeadlineError)
		if !ok {
			t.Fatal("watchdog did not trip")
		}
		if calls != DefaultWatchdogEvery-1 {
			t.Errorf("%d callbacks ran before the trip, want %d", calls, DefaultWatchdogEvery-1)
		}
		if want := time.Duration(DefaultWatchdogEvery-1) * time.Microsecond; de.SimTime != want {
			t.Errorf("tripped at sim time %v, want %v", de.SimTime, want)
		}
	}()
	s.Run(time.Hour)
	t.Fatal("run completed despite the watchdog")
}

// The delivery filter must suppress only the receive callback: the
// filtered frame still contributes air-time energy to carrier sensing.
func TestDeliveryFilterSuppressesCallbackNotEnergy(t *testing.T) {
	s, m, a, b := newTestMedium(2, 0)
	heard := 0
	b.Handler = HandlerFunc(func(phy.Frame, Reception) { heard++ })
	m.SetDeliveryFilter(func(f phy.Frame, tx, rx *Radio) bool {
		return f.Type != phy.FrameBeacon // drop beacons toward everyone
	})
	var midAirEnergy float64
	f := phy.Frame{Type: phy.FrameBeacon, Src: a.ID, Dst: b.ID}
	m.Transmit(a, f)
	s.After(f.Duration()/2, func() { midAirEnergy = m.EnergyDBm(b) })
	s.Run(time.Second)
	if heard != 0 {
		t.Errorf("filtered beacon delivered %d times", heard)
	}
	if math.IsInf(midAirEnergy, -1) {
		t.Error("filtered frame left no energy on air (carrier sensing must still see it)")
	}
	// Other types pass, and clearing the filter restores beacons.
	m.Transmit(a, phy.Frame{Type: phy.FrameData, Src: a.ID, Dst: b.ID, MCS: phy.MCS8, PayloadBytes: 100})
	s.Run(2 * time.Second)
	if heard != 1 {
		t.Errorf("data frame deliveries = %d, want 1", heard)
	}
	m.SetDeliveryFilter(nil)
	m.Transmit(a, f)
	s.Run(3 * time.Second)
	if heard != 2 {
		t.Errorf("deliveries after clearing filter = %d, want 2", heard)
	}
}
