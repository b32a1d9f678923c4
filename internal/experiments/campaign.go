package experiments

import (
	"errors"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/rf"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Status is the campaign runner's per-experiment outcome.
type Status struct {
	// Result is the experiment outcome — the driver's own on success,
	// a synthesized FAIL result when the driver crashed or deadlined,
	// or the checkpointed result when resumed.
	Result core.Result
	// Wall is the driver's wall-clock cost (zero when resumed).
	Wall time.Duration
	// Resumed reports that the result was loaded from the checkpoint
	// instead of re-run.
	Resumed bool
	// Skipped reports that the experiment never started because the
	// campaign was stopped (Campaign.Stop returned true) before its
	// turn came. Skipped results are synthesized and not checkpointed,
	// so a stopped campaign can later resume and run them for real.
	Skipped bool
	// Failure carries the isolation record when the driver panicked,
	// deadlined, or returned an error; nil on success.
	Failure *par.PointError
	// CheckpointErr reports that persisting this (otherwise valid)
	// result to the checkpoint failed — typically a full or failing
	// disk. The result itself is intact in memory; a resume will re-run
	// the experiment. Callers that promise durability (the job daemon)
	// must surface this instead of reporting clean completion.
	CheckpointErr error
}

// Campaign configures RunCampaign.
type Campaign struct {
	// Parallel bounds concurrently running experiments (min 1).
	Parallel int
	// Deadline is the per-experiment wall-clock budget: one clock per
	// experiment, started at its launch and shared by every scheduler
	// the driver builds, so a sweep of K points gets the budget once,
	// not K times. The schedulers enforce it themselves: a driver that
	// overruns aborts at an event boundary with a *sim.DeadlineError and
	// is reported as a structured failure. Zero disables the watchdog.
	Deadline time.Duration
	// Checkpoint, when non-nil, records every finished experiment and
	// skips the ones already on record (resume).
	Checkpoint *Checkpoint
	// Emit observes each experiment's status, in campaign order. It
	// runs on the RunCampaign goroutine.
	Emit func(index int, st Status)
	// Stop, when non-nil, is polled as each experiment is about to
	// execute. Once it returns true, not-yet-started experiments are
	// skipped with a synthesized failing status (Status.Skipped) while
	// in-flight ones run to completion and checkpoint normally. This is
	// the cancel/drain hook for long-running callers (the mmsimd job
	// daemon): a stopped campaign resumes later from its checkpoint.
	Stop func() bool
}

// RunCampaign executes the runners with bounded parallelism and full
// failure isolation: one experiment panicking, exceeding the deadline,
// or being killed by a bug never prevents the others from completing.
// Statuses are emitted strictly in input order. It returns the number
// of experiments that did not pass (failed checks, crashes, deadlines).
//
// Determinism: a resumed campaign emits bit-identical results to an
// uninterrupted one — checkpointed results round-trip exactly, and
// skipping finished experiments cannot perturb the remaining drivers,
// which derive all randomness from (Options, experiment ID).
func RunCampaign(runners []Runner, opts Options, c Campaign) int {
	if c.Parallel < 1 {
		c.Parallel = 1
	}

	statuses := make([]chan Status, len(runners))
	for i := range statuses {
		statuses[i] = make(chan Status, 1)
	}
	sem := make(chan struct{}, c.Parallel)
	for i, r := range runners {
		if c.Checkpoint != nil {
			if res, ok := c.Checkpoint.Done(r.ID); ok {
				statuses[i] <- Status{Result: res, Resumed: true}
				continue
			}
		}
		i, r := i, r
		go func() {
			sem <- struct{}{}
			defer func() { <-sem }()
			// Poll Stop only once the worker slot is held: "stopped"
			// means no further experiment starts, while the in-flight
			// ones (holding the other slots) still finish and record.
			if c.Stop != nil && c.Stop() {
				statuses[i] <- Status{Result: SkipResult(r), Skipped: true}
				return
			}
			statuses[i] <- runOne(r, opts, c.Deadline)
		}()
	}

	failed := 0
	for i := range runners {
		st := <-statuses[i]
		if !st.Result.Pass() {
			failed++
		}
		if c.Checkpoint != nil && !st.Resumed && !st.Skipped {
			// Record even synthesized failures: a resumed campaign must
			// not silently re-run a reproducibly crashing driver forever.
			if err := c.Checkpoint.Record(st.Result); err != nil {
				st.CheckpointErr = err
				st.Result.Note("checkpoint write failed: %v", err)
			}
		}
		if c.Emit != nil {
			c.Emit(i, st)
		}
	}
	return failed
}

// SkipResult synthesizes the result for an experiment a stopped
// campaign never launched. It fails Pass() so a stopped campaign is
// never mistaken for a complete one. The shard coordinator reuses it so
// a drained sharded campaign skips with byte-identical statuses.
func SkipResult(r Runner) core.Result {
	res := core.Result{ID: r.ID, Title: r.Title, PaperClaim: "(not started)"}
	res.AddCheck("completed", "started", "campaign stopped before launch", false)
	return res
}

// runOne executes a single driver under panic isolation, with the
// experiment's wall clock started at its launch.
func runOne(r Runner, opts Options, deadline time.Duration) Status {
	var res core.Result
	start := time.Now()
	opts.wallStart, opts.wallBudget = start, deadline
	pe := par.Guarded(0, 0, func(int) error {
		res = r.Run(opts)
		return nil
	})
	wall := time.Since(start)
	if pe == nil {
		return Status{Result: res, Wall: wall}
	}
	return Status{Result: failResult(r, pe, deadline), Wall: wall, Failure: pe}
}

// failResult synthesizes the structured FAIL report for a crashed or
// deadlined driver, so campaign output and checkpoints stay uniform.
func failResult(r Runner, pe *par.PointError, deadline time.Duration) core.Result {
	res := core.Result{ID: r.ID, Title: r.Title, PaperClaim: "(driver did not complete)"}
	var de *sim.DeadlineError
	var ve *audit.ViolationError
	var fe *vfs.FaultError
	var ge *rf.GeometryError
	switch {
	case asViolation(pe, &ve):
		res.AddCheck("audit", "invariants hold",
			"violated "+string(ve.V.Rule), false)
		res.Note("audit [%s] at sim time %v: %s", ve.V.Rule, ve.V.Time, ve.V.Detail)
	case asDiskFault(pe, &fe):
		res.AddCheck("persistence", "disk writes complete",
			"disk fault during "+fe.Op, false)
		res.Note("disk fault: op %s path %s: %v", fe.Op, fe.Path, fe.Err)
	case asGeometry(pe, &ge):
		res.AddCheck("geometry", "scenario traces",
			"ray tracer rejected the scenario", false)
		res.Note("geometry: trace %v→%v: %v", ge.Tx, ge.Rx, ge.Err)
	case asDeadline(pe, &de):
		res.AddCheck("completed", "within deadline",
			"exceeded "+deadline.String()+" wall-clock budget", false)
		res.Note("aborted at sim time %v after %v of wall time", de.SimTime, de.Elapsed.Round(time.Millisecond))
	case pe.Panic != nil:
		res.AddCheck("completed", "no panic", "driver panicked", false)
		res.Note("panic: %v", pe.Panic)
	default:
		res.AddCheck("completed", "no error", "driver failed", false)
		res.Note("error: %v", pe.Err)
	}
	return res
}

// asViolation digs a *audit.ViolationError out of a point failure — the
// strict-mode auditor aborts an experiment by panicking, so the
// violation arrives exactly like a deadline: as a recovered panic value,
// wrapped in the error chain, or buried in a nested sweep's *PointError.
func asViolation(pe *par.PointError, out **audit.ViolationError) bool {
	for pe != nil {
		if ve, ok := pe.Panic.(*audit.ViolationError); ok {
			*out = ve
			return true
		}
		if pe.Err == nil {
			return false
		}
		if errors.As(pe.Err, out) {
			return true
		}
		var inner *par.PointError
		if !errors.As(pe.Err, &inner) {
			return false
		}
		pe = inner
	}
	return false
}

// asDiskFault digs a *vfs.FaultError out of a point failure — a driver
// killed by a failing disk (capture write, checkpoint append) reports a
// structured persistence failure instead of a generic crash, so
// operators can tell "the experiment is wrong" from "the disk is full".
func asDiskFault(pe *par.PointError, out **vfs.FaultError) bool {
	for pe != nil {
		if fe, ok := pe.Panic.(*vfs.FaultError); ok {
			*out = fe
			return true
		}
		if err, ok := pe.Panic.(error); ok && errors.As(err, out) {
			return true
		}
		if pe.Err == nil {
			return false
		}
		if errors.As(pe.Err, out) {
			return true
		}
		var inner *par.PointError
		if !errors.As(pe.Err, &inner) {
			return false
		}
		pe = inner
	}
	return false
}

// asGeometry digs a *rf.GeometryError out of a point failure — a driver
// killed by an untraceable scenario (in practice an unknown wall
// material) reports a structured geometry failure instead of a generic
// crash, so operators can tell "the scenario definition is broken" from
// "the experiment logic panicked". The error typically arrives as
// sim.Medium's trace panic: an error value wrapping the GeometryError.
func asGeometry(pe *par.PointError, out **rf.GeometryError) bool {
	for pe != nil {
		if ge, ok := pe.Panic.(*rf.GeometryError); ok {
			*out = ge
			return true
		}
		if err, ok := pe.Panic.(error); ok && errors.As(err, out) {
			return true
		}
		if pe.Err == nil {
			return false
		}
		if errors.As(pe.Err, out) {
			return true
		}
		var inner *par.PointError
		if !errors.As(pe.Err, &inner) {
			return false
		}
		pe = inner
	}
	return false
}

// asDeadline digs a *sim.DeadlineError out of a point failure, whether
// it arrived as a recovered panic value, wrapped in the error chain, or
// buried in a nested sweep's *PointError (a deadlined sweep point panics
// inside the worker, so the deadline rides the Panic field there).
func asDeadline(pe *par.PointError, out **sim.DeadlineError) bool {
	for pe != nil {
		if de, ok := pe.Panic.(*sim.DeadlineError); ok {
			*out = de
			return true
		}
		if pe.Err == nil {
			return false
		}
		if errors.As(pe.Err, out) {
			return true
		}
		var inner *par.PointError
		if !errors.As(pe.Err, &inner) {
			return false
		}
		pe = inner
	}
	return false
}
