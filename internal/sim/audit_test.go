package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/phy"
	"repro/internal/rf"
)

// withAudit runs fn with the auditor in warn mode and clean counters,
// restoring the previous mode afterwards.
func withAudit(t *testing.T, fn func()) {
	t.Helper()
	prev := audit.SetMode(audit.Warn)
	audit.Reset()
	defer func() {
		audit.SetMode(prev)
		audit.Reset()
	}()
	fn()
}

// A clean run through the medium must record zero violations: delivery,
// interference, and carrier sensing all stay lawful.
func TestAuditCleanRun(t *testing.T) {
	withAudit(t, func() {
		s, m, a, b := newTestMedium(2, 0.8)
		got := 0
		b.Handler = HandlerFunc(func(phy.Frame, Reception) { got++ })
		for i := 0; i < 50; i++ {
			at := time.Duration(i) * 50 * time.Microsecond
			s.At(at, func() {
				m.Transmit(a, phy.Frame{Type: phy.FrameData, Src: a.ID, Dst: b.ID, MCS: phy.MCS8, PayloadBytes: 1500})
				m.EnergyDBm(b) // exercise the energy audit mid-air
			})
		}
		s.Run(time.Second)
		if got == 0 {
			t.Fatal("no frames delivered")
		}
		if n := audit.Total(); n != 0 {
			t.Fatalf("clean run recorded %d violations: %s", n, audit.Summary())
		}
	})
}

// A frame with a negative payload yields a non-positive air-time; the
// medium must classify it under medium.tx.duration. An MCS off the
// ladder must land under phy.mcs.range.
func TestAuditTransmitLegality(t *testing.T) {
	withAudit(t, func() {
		_, m, a, _ := newTestMedium(2, 0)
		m.Transmit(a, phy.Frame{Type: phy.FrameData, Src: a.ID, MCS: phy.MCS4, PayloadBytes: -100000})
		if audit.Counts()[audit.RuleMediumTxDuration] == 0 {
			t.Errorf("negative air-time not caught: %s", audit.Summary())
		}
		// An off-ladder MCS is classified before the rate lookup panics on
		// it (in warn mode the underlying panic still surfaces).
		func() {
			defer func() { recover() }()
			m.Transmit(a, phy.Frame{Type: phy.FrameData, Src: a.ID, MCS: phy.MaxDataMCS + 1, PayloadBytes: 100})
		}()
		if audit.Counts()[audit.RulePhyMCSRange] == 0 {
			t.Errorf("off-ladder MCS not caught: %s", audit.Summary())
		}
	})
}

// Corrupting a cached per-receiver power between carrier-sense reads
// simulates an accounting bug; the independent recompute cannot catch a
// consistent corruption, but a delivery above the transmit power plus
// max array gain must be flagged as overpower.
func TestAuditOverpowerDelivery(t *testing.T) {
	withAudit(t, func() {
		s, m, a, b := newTestMedium(2, 0)
		heard := false
		b.Handler = HandlerFunc(func(phy.Frame, Reception) { heard = true })
		f := phy.Frame{Type: phy.FrameData, Src: a.ID, Dst: b.ID, MCS: phy.MCS8, PayloadBytes: 200}
		m.Transmit(a, f)
		// Reach into the live transmission and inflate b's cached power,
		// as a sign bug in the budget math would.
		m.active[0].rxPowerMw[b.ID] = rf.DbToLin(a.TxPowerDBm + MaxArrayGainDB + 10)
		s.Run(time.Second)
		if !heard {
			t.Fatal("frame not delivered")
		}
		if audit.Counts()[audit.RuleMediumRxOverpower] == 0 {
			t.Fatalf("overpower delivery not caught: %s", audit.Summary())
		}
	})
}

// The heap-consistency sweep must flag a recycled event record still in
// the queue (Pending would overcount it) and a timer whose recorded
// index drifted from its slot.
func TestAuditHeapInconsistency(t *testing.T) {
	withAudit(t, func() {
		s := NewScheduler()
		// The sweep runs every DefaultWatchdogEvery events, so queue more
		// than one period of events ahead of the record that gets
		// corrupted (it fires last, an hour in).
		for i := 0; i < DefaultWatchdogEvery+8; i++ {
			s.At(time.Duration(i)*time.Microsecond, func() {})
		}
		last := s.At(time.Hour, func() {})
		last.ev.fn = nil // simulate a recycle that skipped heap.Remove
		// Stop short of the corrupted record's fire time: the sweep runs
		// at the first period boundary and must flag it while it is
		// still queued.
		s.Run(time.Second)
		if audit.Counts()[audit.RuleSchedHeapConsistent] == 0 {
			t.Fatalf("recycled-in-queue not caught: %s", audit.Summary())
		}
	})
	withAudit(t, func() {
		s := NewScheduler()
		for i := 0; i < 8; i++ {
			s.At(time.Duration(i)*time.Millisecond, func() {})
		}
		s.events[3].index = 99
		s.auditHeap(s.Now())
		if audit.Counts()[audit.RuleSchedHeapConsistent] == 0 {
			t.Fatalf("index drift not caught: %s", audit.Summary())
		}
	})
}

// Satellite: unknown radio IDs panic with a descriptive message instead
// of being silently accepted.
func TestMediumRejectsUnknownRadioIDs(t *testing.T) {
	_, m, a, b := newTestMedium(2, 0)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic for unknown radio ID", name)
			}
			msg, ok := r.(string)
			if !ok || !strings.Contains(msg, "unknown radio ID") || !strings.Contains(msg, name) {
				t.Fatalf("%s: panic %v lacks a descriptive message", name, r)
			}
		}()
		fn()
	}
	mustPanic("SetLinkOffset", func() { m.SetLinkOffset(a.ID, 7, -3) })
	mustPanic("SetLinkOffset", func() { m.SetLinkOffset(-1, b.ID, -3) })
	mustPanic("LinkOffset", func() { m.LinkOffset(a.ID, 99) })
	mustPanic("InvalidateRadio", func() { m.InvalidateRadio(2) })
	// Valid IDs still work.
	m.SetLinkOffset(a.ID, b.ID, -2.5)
	if got := m.LinkOffset(a.ID, b.ID); got != -2.5 {
		t.Fatalf("LinkOffset = %v, want -2.5", got)
	}
	m.InvalidateRadio(a.ID)

	// A radio has no channel to itself: a self pair would alias another
	// pair's slot, so it panics instead.
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "no channel to itself") {
				t.Fatalf("self pair: panic %v, want a no-channel-to-itself panic", r)
			}
		}()
		m.LinkOffset(b.ID, b.ID)
	}()
}

// Satellite: *sim.DeadlineError participates in the errors.Is/errors.As
// protocol via the ErrDeadline sentinel, through arbitrary wrapping.
func TestDeadlineErrorSentinel(t *testing.T) {
	de := &DeadlineError{Budget: time.Second, Elapsed: 2 * time.Second, SimTime: time.Minute}
	if !errors.Is(de, ErrDeadline) {
		t.Fatal("errors.Is(de, ErrDeadline) = false")
	}
	wrapped := fmt.Errorf("experiment F24: %w", error(de))
	if !errors.Is(wrapped, ErrDeadline) {
		t.Fatal("errors.Is through fmt.Errorf wrap = false")
	}
	var out *DeadlineError
	if !errors.As(wrapped, &out) || out != de {
		t.Fatal("errors.As through fmt.Errorf wrap failed")
	}
}
