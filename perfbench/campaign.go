package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/vfs"
)

// The campaign workload: the quick campaign of every registered
// experiment, serially (one experiment at a time, one sweep worker),
// with checkpoint and capture on, cold in a fresh process as an mmsim
// user runs it. Frame-level operation — the scheduler, medium, MAC,
// TCP and sniffer — dominates it.
//
// The experiment seed stays 1, the seed GOLDEN.json was taken at, so
// the golden comparison applies to every run; the workload seed picks
// the order in which the experiments run.

// campaignExperimentSeed is the experiment seed of GOLDEN.json.
const campaignExperimentSeed = 1

// campaignNamed are the experiments reported one by one: the longest
// ones, which set the campaign's critical path.
var campaignNamed = []string{"F22", "F23", "X2", "F13", "X1"}

// campaignRunners returns every experiment in a seed-chosen order.
func campaignRunners(seed uint64) []experiments.Runner {
	all := experiments.All()
	perm := rand.New(rand.NewSource(int64(seed))).Perm(len(all))
	out := make([]experiments.Runner, len(all))
	for i, j := range perm {
		out[i] = all[j]
	}
	return out
}

func runCampaignRound(cfg roundConfig) (roundResult, error) {
	res := roundResult{Layers: map[string]float64{}}
	par.SetWorkers(1)
	golden, err := metrics.ReadGolden("GOLDEN.json")
	if err != nil {
		return res, err
	}
	dir, err := os.MkdirTemp(tmpDir, "campaign-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	cfs := newCountFS(vfs.OS())
	opts := experiments.Options{Seed: campaignExperimentSeed, Quick: true, CaptureDir: dir, DiskFS: cfs}
	ckpt, err := experiments.OpenCheckpointFS(cfs, dir, opts)
	if err != nil {
		return res, err
	}
	runners := campaignRunners(cfg.seed)
	var rec *spanRecorder
	root := -1
	if cfg.traced {
		rec = newSpanRecorder()
		for i := range runners {
			id, run := runners[i].ID, runners[i].Run
			runners[i].Run = func(o experiments.Options) core.Result {
				s := rec.begin("experiments."+id, root)
				defer rec.end(s)
				return run(o)
			}
		}
	}
	var statuses []experiments.Status

	res.ReadyNs = time.Now().UnixNano()
	prof, err := startProfile(cfg.traced)
	if err != nil {
		return res, err
	}
	fs0, p0 := cfs.snapshot(), readProbe()
	root = rec.begin("campaign", -1)
	experiments.RunCampaign(runners, opts, experiments.Campaign{
		Parallel:   1,
		Checkpoint: ckpt,
		Emit:       func(_ int, st experiments.Status) { statuses = append(statuses, st) },
	})
	closeErr := ckpt.Close()
	rec.end(root)
	p0.record(readProbe(), &res)
	fsDone := cfs.snapshot().sub(fs0)
	if err := prof.stop(&res); err != nil {
		return res, err
	}
	if closeErr != nil {
		return res, fmt.Errorf("closing the checkpoint: %w", closeErr)
	}

	res.Units = len(statuses)
	recordFS(&res, fsDone, 0)
	checkCampaign(&res, statuses, golden, dir)
	for _, st := range statuses {
		res.Latencies = append(res.Latencies, st.Wall.Seconds())
		key := "experiments.rest_s"
		for _, id := range campaignNamed {
			if st.Result.ID == id {
				key = "experiments." + id + "_s"
			}
		}
		res.Layers[key] += st.Wall.Seconds()
	}
	if rec != nil {
		res.Layers["trace.self_s"] = selfTimes(rec.spans)["campaign"].Seconds()
	}
	return res, saveSpans(rec, cfg, "campaign", &res)
}

// checkCampaign checks every experiment's verdict and the campaign's
// fingerprint against GOLDEN.json, and digests the reports. The capture
// notes name the round's temporary directory, which the digest leaves
// out.
func checkCampaign(res *roundResult, statuses []experiments.Status, golden metrics.Golden, captureDir string) {
	failed := map[string]bool{}
	var fps []metrics.Experiment
	reports := map[string]string{}
	for _, st := range statuses {
		id := st.Result.ID
		res.Attempted++
		fps = append(fps, metrics.FromResult(st.Result))
		reports[id] = strings.ReplaceAll(st.Result.String(), captureDir, "<capture>")
		switch {
		case !st.Result.Pass():
			failed[id] = true
			res.Failures = append(res.Failures, "campaign: "+id+" did not pass")
		case st.CheckpointErr != nil:
			failed[id] = true
			res.Failures = append(res.Failures, fmt.Sprintf("campaign: %s checkpoint: %v", id, st.CheckpointErr))
		}
	}
	for _, d := range metrics.Compare(golden, metrics.File{Experiments: fps}) {
		res.Failures = append(res.Failures, "campaign: golden drift: "+d)
		id, _, _ := strings.Cut(d, ":")
		if _, known := reports[id]; !known {
			res.Attempted++ // a drift that names no experiment of this run
			res.Failed++
			continue
		}
		failed[id] = true
	}
	res.Failed += len(failed)

	h := fnv.New64a()
	ids := make([]string, 0, len(reports))
	for id := range reports {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		h.Write([]byte(reports[id]))
	}
	res.Digest = fmt.Sprintf("%016x", h.Sum64())
}
