// Command perfbench is the repository benchmark. It measures three
// workloads end to end and layer by layer, each from outside the
// program: it times its own calls into the public API of each layer.
//
//	campaign     the quick 28-experiment campaign, serial (frame level)
//	office-walk  sector sweeps and interference under moving people
//	daemon       closed-loop job traffic against an in-process mmsimd
//
// A run repeats rounds of fixed work until -seconds have passed. Every
// round is a fresh child process of this binary, so each pays the cold
// start a user pays, and the parent aggregates medians over rounds.
// With -trace 1, odd rounds record spans and a CPU profile and the run
// prints per-layer metrics instead of end-to-end ones. The last line of
// standard output is the result object; see README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// roundResult is what one child process reports for its round.
type roundResult struct {
	// ReadyNs is the wall clock (Unix ns) at which set-up finished and
	// the first timed unit was about to start.
	ReadyNs int64 `json:"ready_ns"`
	// WallS and CPUS cover the timed work only.
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
	// Units counts completed units: experiments, walk steps, jobs.
	Units int `json:"units"`
	// Latencies holds one wall time per unit, in seconds.
	Latencies []float64 `json:"latencies"`
	// Attempted and Failed count output checks; Failures names each
	// failed one.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Digest fingerprints the round's outputs; rounds of one seed must
	// agree.
	Digest string `json:"digest,omitempty"`
	// Layers holds the per-layer metrics of the round.
	Layers map[string]float64 `json:"layers"`
}

// fail records one failed check.
func (r *roundResult) fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// workload is one benchmark workload: the child side runs one round.
type workload struct {
	name string
	unit string
	run  func(cfg roundConfig) (roundResult, error)
}

// roundConfig is what a child process is told about its round.
type roundConfig struct {
	seed   uint64
	round  int
	traced bool
}

// buildDir holds everything a run writes; runs start in the repository
// root, which holds GOLDEN.json.
const buildDir = ".bench_build"

// tmpDir holds the workloads' temporary data directories.
var tmpDir = filepath.Join(buildDir, "tmp")

var workloads = []workload{
	{name: "campaign", unit: "experiment", run: runCampaignRound},
	{name: "office-walk", unit: "step", run: runWalkRound},
	{name: "daemon", unit: "job", run: runDaemonRound},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload: campaign, office-walk or daemon")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measure for this many seconds (whole rounds)")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	child := flag.Bool("child", false, "internal: run one round and print its roundResult")
	round := flag.Int("round", 0, "internal: round index of a child")
	traced := flag.Bool("traced", false, "internal: the child round records spans and a profile")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *child {
		res, err := w.run(roundConfig{seed: *seed, round: *round, traced: *traced})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s round %d: %v\n", w.name, *round, err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := runParent(w, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// roundOutcome is a finished round as the parent saw it.
type roundOutcome struct {
	roundResult
	traced    bool
	setupS    float64
	maxRSSMiB float64
}

// minRounds is the fewest rounds a run makes, whatever -seconds says.
const minRounds = 3

// runParent runs rounds until the time is up and prints the result.
func runParent(w workload, seed uint64, seconds int, trace bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	start := time.Now()
	var rounds []roundOutcome
	for i := 0; ; i++ {
		enough := i >= minRounds && time.Since(start) >= time.Duration(seconds)*time.Second
		// A traced run alternates untraced and traced rounds, so it
		// stops only on an even count to keep the two sides equal.
		if enough && (!trace || i%2 == 0) {
			break
		}
		out, err := spawnRound(exe, w, seed, i, trace && i%2 == 1)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s round %d: setup %.3fs wall %.3fs cpu %.3fs units %d failed %d/%d\n",
			w.name, i, out.setupS, out.WallS, out.CPUS, out.Units, out.Failed, out.Attempted)
		rounds = append(rounds, out)
	}

	attempted, failed := 0, 0
	for _, r := range rounds {
		attempted += r.Attempted
		failed += r.Failed
		for _, f := range r.Failures {
			fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s\n", f)
		}
	}
	// Every round of one seed does identical work, so its outputs must
	// fingerprint identically.
	attempted++
	for _, r := range rounds[1:] {
		if r.Digest != rounds[0].Digest {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: FAILED: round digests differ (%s vs %s)\n", rounds[0].Digest, r.Digest)
			break
		}
	}

	var metrics map[string]metric
	if trace {
		metrics = perLayerMetrics(rounds)
	} else {
		metrics = endToEndMetrics(rounds)
	}
	lat := pooledLatencies(rounds)
	var walls []float64
	for _, r := range rounds {
		if !r.traced {
			walls = append(walls, r.WallS)
		}
	}
	info := map[string]any{
		"workload":        w.name,
		"unit":            w.unit,
		"seed":            seed,
		"seconds":         seconds,
		"trace":           trace,
		"rounds":          len(rounds),
		"latency_samples": len(lat),
		// The interquartile spread of the untraced rounds' wall times
		// as a share of their median: how steady the host was.
		"round_wall_spread": spread(walls),
		"failed_frac":       float64(failed) / float64(attempted),
		"digest":            rounds[0].Digest,
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go_version":        runtime.Version(),
		"cpu_model":         cpuModel(),
	}
	line, err := json.Marshal(map[string]any{"host": info})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// spawnRound runs one round in a fresh child process and waits for it.
func spawnRound(exe string, w workload, seed uint64, i int, traced bool) (roundOutcome, error) {
	cmd := exec.Command(exe, "-child", "-workload", w.name,
		"-seed", strconv.FormatUint(seed, 10), "-round", strconv.Itoa(i),
		"-traced="+strconv.FormatBool(traced))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	spawned := time.Now()
	if err := cmd.Run(); err != nil {
		return roundOutcome{}, fmt.Errorf("%s round %d: %w", w.name, i, err)
	}
	var res roundResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return roundOutcome{}, fmt.Errorf("%s round %d: bad child output: %w", w.name, i, err)
	}
	out := roundOutcome{roundResult: res, traced: traced}
	out.setupS = float64(res.ReadyNs-spawned.UnixNano()) / 1e9
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		out.maxRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if res.Units == 0 || res.WallS <= 0 {
		return roundOutcome{}, errors.New(w.name + ": round did no timed work")
	}
	return out, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func pooledLatencies(rounds []roundOutcome) []float64 {
	var all []float64
	for _, r := range rounds {
		if !r.traced {
			all = append(all, r.Latencies...)
		}
	}
	return all
}

// endToEndMetrics reduces the untraced rounds to the end-to-end metrics,
// each the median over rounds of the round's own figure. The latency
// percentiles are taken per round too, so a round slowed by a busy host
// shifts them no more than it shifts wall_s.
func endToEndMetrics(rounds []roundOutcome) map[string]metric {
	var wall, cpu, rate, setup, rss, p50, p90 []float64
	for _, r := range rounds {
		setup = append(setup, r.setupS)
		if r.traced {
			continue
		}
		wall = append(wall, r.WallS)
		cpu = append(cpu, r.CPUS)
		rate = append(rate, float64(r.Units)/r.WallS)
		rss = append(rss, r.maxRSSMiB)
		p50 = append(p50, percentile(r.Latencies, 50))
		p90 = append(p90, percentile(r.Latencies, 90))
	}
	return map[string]metric{
		"wall_s":        {median(wall), "s"},
		"cpu_s":         {median(cpu), "s"},
		"jobs_per_s":    {median(rate), "1/s"},
		"setup_s":       {median(setup), "s"},
		"max_rss_mib":   {median(rss), "MiB"},
		"latency_p50_s": {median(p50), "s"},
		"latency_p90_s": {median(p90), "s"},
	}
}

// perLayerMetrics reduces a traced run: every layer metric is the
// median over the traced rounds; the tracing overhead compares traced
// and untraced wall time within the same run.
func perLayerMetrics(rounds []roundOutcome) map[string]metric {
	byName := map[string][]float64{}
	var tracedWall, plainWall []float64
	for _, r := range rounds {
		if !r.traced {
			plainWall = append(plainWall, r.WallS)
			continue
		}
		tracedWall = append(tracedWall, r.WallS)
		for k, v := range r.Layers {
			byName[k] = append(byName[k], v)
		}
	}
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = metric{median(byName[m.name]), m.unit}
	}
	out["trace.wall_s"] = metric{median(tracedWall), "s"}
	out["trace.overhead_s"] = metric{median(tracedWall) - median(plainWall), "s"}
	out["latency.samples"] = metric{float64(len(pooledLatencies(rounds))), "count"}
	return out
}

// layerMetric names one per-layer metric a round may report. A workload
// that does not exercise a layer reports 0 for it.
type layerMetric struct {
	name, unit, better string
}

// layerMetrics is the per-layer set, in BENCHMARK.json order (the three
// run-level metrics computed by perLayerMetrics come last there).
var layerMetrics = []layerMetric{
	{"experiments.F22_s", "s", "lower"},
	{"experiments.F23_s", "s", "lower"},
	{"experiments.X2_s", "s", "lower"},
	{"experiments.F13_s", "s", "lower"},
	{"experiments.X1_s", "s", "lower"},
	{"experiments.rest_s", "s", "lower"},
	{"sim.scheduler_cpu_s", "s", "lower"},
	{"sim.medium_cpu_s", "s", "lower"},
	{"rf.channel_cpu_s", "s", "lower"},
	{"rf.tracer_cpu_s", "s", "lower"},
	{"antenna.cpu_s", "s", "lower"},
	{"mac.cpu_s", "s", "lower"},
	{"transport.cpu_s", "s", "lower"},
	{"sniffer.cpu_s", "s", "lower"},
	{"serve.cpu_s", "s", "lower"},
	{"other.cpu_s", "s", "lower"},
	{"unattributed.cpu_s", "s", "lower"},
	{"geom.move_s", "s", "lower"},
	{"rf.trace_s", "s", "lower"},
	{"rf.traces", "count", "higher"},
	{"rf.paths_per_trace", "count", "higher"},
	{"sim.sweep_s", "s", "lower"},
	{"sim.sweeps", "count", "higher"},
	{"sim.rx_power_s", "s", "lower"},
	{"sim.rx_power_calls", "count", "higher"},
	{"vfs.ops", "count", "lower"},
	{"vfs.write_bytes", "bytes", "lower"},
	{"vfs.syncs", "count", "lower"},
	{"vfs.busy_s", "s", "lower"},
	{"vfs.ops_per_job", "count", "lower"},
	{"vfs.write_bytes_per_job", "bytes", "lower"},
	{"vfs.syncs_per_job", "count", "lower"},
	{"serve.submit_s", "s", "lower"},
	{"serve.queue_wait_s", "s", "lower"},
	{"serve.run_s", "s", "lower"},
	{"serve.report_s", "s", "lower"},
	{"serve.rejected", "count", "lower"},
	{"runtime.gc_cpu_s", "s", "lower"},
	{"runtime.alloc_bytes", "bytes", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"trace.spans", "count", "lower"},
	{"trace.self_s", "s", "lower"},
}

// cpuModel reads the host CPU model name, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
