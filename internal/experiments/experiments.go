// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section 4). Each driver builds a scenario on the
// core toolkit, runs the measurement methodology the paper describes —
// sniffer traces, angular profiles, iperf flows — and returns a
// core.Result pairing the paper's reported numbers with the reproduced
// ones. The drivers are deterministic given (seed, options).
package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/vfs"
)

// Options tunes experiment cost. The defaults reproduce paper-like
// durations scaled to simulation-friendly lengths; Quick cuts them
// further for unit tests and benchmarks.
type Options struct {
	// Seed drives all randomness.
	Seed uint64
	// Quick trades statistical smoothness for speed.
	Quick bool
	// CaptureDir, when non-empty, makes the sniffer-based drivers
	// stream their raw capture to <CaptureDir>/<ID>.vubiq as binary v2
	// trace files (mmsim -capture). Captures do not affect results.
	CaptureDir string
	// DiskFS routes every file the campaign writes (captures,
	// checkpoint) through an injectable filesystem; nil means the real
	// OS. It is process-local plumbing, not a result-relevant option:
	// it is excluded from the checkpoint fingerprint and must be
	// cleared before Options crosses a process boundary (the shard
	// protocol gob-encodes Options and cannot carry a live filesystem).
	DiskFS vfs.FS `json:"-"`

	// wallStart and wallBudget are the experiment's wall-clock watchdog:
	// RunCampaign stamps the experiment's launch and Campaign.Deadline
	// here, and every scheduler the driver builds through scenario
	// shares them, so one budget bounds all of the experiment's sweep
	// points together. Being unexported, they are not gob- or
	// JSON-encoded and not part of the checkpoint fingerprint.
	wallStart  time.Time
	wallBudget time.Duration
}

// scenario builds a driver's scenario with its scheduler armed against
// the experiment's wall-clock budget. Drivers build every scenario
// through it (TestDriversBuildScenariosThroughOptions).
func (o Options) scenario(room *geom.Room, seed uint64) *core.Scenario {
	sc := core.NewScenario(room, seed)
	sc.Sched.SetWallBudget(o.wallStart, o.wallBudget)
	return sc
}

// companion returns the options of an auxiliary run inside the same
// experiment: its own seed, no capture, and the experiment's wall clock.
func (o Options) companion(seed uint64) Options {
	return Options{Seed: seed, Quick: o.Quick, wallStart: o.wallStart, wallBudget: o.wallBudget}
}

// fs returns the effective filesystem: DiskFS, or the real OS.
func (o Options) fs() vfs.FS {
	if o.DiskFS != nil {
		return o.DiskFS
	}
	return vfs.OS()
}

// FS exposes the effective filesystem for callers outside the package
// (cmd/mmsim's report writing, serve's capture plumbing).
func (o Options) FS() vfs.FS { return o.fs() }

// DefaultOptions returns the full-fidelity settings.
func DefaultOptions() Options { return Options{Seed: 1} }

// QuickOptions returns reduced settings for tests and benches.
func QuickOptions() Options { return Options{Seed: 1, Quick: true} }

// Runner is one experiment driver.
type Runner struct {
	// ID is the table/figure identifier.
	ID string
	// Title is a short description.
	Title string
	// Run executes the experiment.
	Run func(Options) core.Result
}

var registry = map[string]Runner{}

func register(r Runner) {
	registry[r.ID] = r
}

// Get returns the runner for an ID ("T1", "F9", ...).
func Get(id string) (Runner, bool) {
	r, ok := registry[id]
	return r, ok
}

// All returns every registered runner sorted by ID (tables first, then
// figures by number).
func All() []Runner {
	out := make([]Runner, 0, len(registry))
	for _, r := range registry {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return orderKey(out[i].ID) < orderKey(out[j].ID) })
	return out
}

// orderKey sorts T1 before F3 before F10 before S41, with ablations
// (A*) and extensions (X*) after the paper artifacts.
func orderKey(id string) string {
	if len(id) < 2 {
		return id
	}
	prefixRank := map[byte]byte{'T': '0', 'F': '1', 'S': '2', 'A': '3', 'X': '4'}
	rank, ok := prefixRank[id[0]]
	if !ok {
		rank = '9'
	}
	return fmt.Sprintf("%c%04s", rank, id[1:])
}
