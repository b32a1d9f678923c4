package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/par"
	"repro/internal/serve"
	"repro/internal/vfs"
)

// The daemon workload: an in-process mmsimd (serve.Server) on loopback
// HTTP, two job workers of one experiment each, fed by two closed-loop
// clients. Each client submits a job, follows its event stream to the
// end, then fetches the report, and only then submits its next job.
// The jobs are cheap, so HTTP, queueing and the job directory's writes
// set their cost. Its data directory sits behind the counting FS.

const (
	daemonClients = 2
	daemonSpecs   = 12 // distinct job specs
	daemonCycles  = 12 // each client runs every spec this many times
)

// daemonSets are the experiment lists of the jobs: one to three cheap
// experiments whose checks hold at every seed tried (see README.md).
var daemonSets = [][]string{{"A4"}, {"F16", "A4"}, {"F12", "F16", "A4"}}

// daemonMix picks the list of spec i: a quarter of the jobs run one
// experiment, half run two and a quarter three, so the latency median
// and 90th percentile fall inside a class, not on the gap between two.
var daemonMix = []int{0, 1, 1, 2}

var daemonTenants = []string{"alpha", "bravo", "charlie"}

// daemonSpec is job spec i. The 12 specs are distinct (i mod 4 picks
// the list, i mod 3 the tenant) and fixed: an experiment's cost depends
// on its seed, so the workload seed changes only the order in which the
// clients submit them, and every round does the same work.
func daemonSpec(i int) serve.JobSpec {
	return serve.JobSpec{
		Experiments: daemonSets[daemonMix[i%len(daemonMix)]],
		Seed:        1 + uint64(i/len(daemonMix)),
		Quick:       true,
		Tenant:      daemonTenants[i%len(daemonTenants)],
	}
}

// daemonJobs returns each client's job sequence: daemonCycles
// seed-chosen permutations of the specs.
func daemonJobs(seed uint64) [][]int {
	rng := rand.New(rand.NewSource(int64(seed)))
	jobs := make([][]int, daemonClients)
	for c := range jobs {
		for k := 0; k < daemonCycles; k++ {
			jobs[c] = append(jobs[c], rng.Perm(daemonSpecs)...)
		}
	}
	return jobs
}

// jobOutcome is one job as its client saw it.
type jobOutcome struct {
	spec    int
	id      string
	latency time.Duration // submit → report received
	submit  time.Duration
	report  time.Duration
	code    int    // status of the submission
	state   string // state of the done event
	body    []byte // the report
	err     error
}

// daemonClient drives jobs over one HTTP connection pool.
type daemonClient struct {
	base string
	http *http.Client
	rec  *spanRecorder
}

func (c *daemonClient) runJob(spec int) jobOutcome {
	out := jobOutcome{spec: spec}
	start := time.Now()
	root := c.rec.begin("serve.job", -1)
	defer c.rec.end(root)

	sp := c.rec.begin("serve.submit", root)
	body, _ := json.Marshal(daemonSpec(spec)) // a JobSpec always marshals
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	out.code = resp.StatusCode
	var snap serve.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	out.submit = time.Since(start)
	c.rec.end(sp)
	if out.code != http.StatusAccepted || err != nil {
		out.err = fmt.Errorf("submit: status %d (decode error %v)", out.code, err)
		return out
	}
	out.id = snap.ID

	sp = c.rec.begin("serve.events", root)
	out.state, out.err = c.follow(out.id)
	c.rec.end(sp)
	if out.err != nil {
		return out
	}

	sp = c.rec.begin("serve.report", root)
	t := time.Now()
	out.body, out.err = c.get("/v1/jobs/" + out.id + "/report")
	out.report = time.Since(t)
	c.rec.end(sp)
	out.latency = time.Since(start)
	return out
}

// follow reads a job's event stream to its done event and returns the
// final state.
func (c *daemonClient) follow(id string) (string, error) {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", fmt.Errorf("events: %w", err)
		}
		if ev.Event == "done" {
			_, err := io.Copy(io.Discard, resp.Body)
			return string(ev.State), err
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errors.New("events: stream ended without a done event")
}

func (c *daemonClient) get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return data, err
}

// runClients runs jobs[c] on client c, all clients at once.
func runClients(clients []*daemonClient, jobs [][]int) [][]jobOutcome {
	out := make([][]jobOutcome, len(clients))
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, spec := range jobs[c] {
				out[c] = append(out[c], clients[c].runJob(spec))
			}
		}(c)
	}
	wg.Wait()
	return out
}

// daemonServer is a booted daemon listening on loopback.
type daemonServer struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
}

func bootDaemon(dir string, fsys vfs.FS) (*daemonServer, error) {
	srv, err := serve.New(serve.Config{DataDir: dir, Jobs: 2, JobParallel: 1, FS: fsys})
	if err != nil {
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	d := &daemonServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { d.served <- d.hs.Serve(ln) }()
	// Set-up ends when the daemon answers its health check.
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get(d.base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon did not become healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the job workers, then closes the HTTP server and waits
// for it.
func (d *daemonServer) stop() error {
	d.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

func runDaemonRound(cfg roundConfig) (roundResult, error) {
	res := roundResult{Layers: map[string]float64{}}
	par.SetWorkers(1)
	dir, err := os.MkdirTemp(tmpDir, "daemon-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	cfs := newCountFS(vfs.OS())
	d, err := bootDaemon(dir, cfs)
	if err != nil {
		return res, err
	}
	res.ReadyNs = time.Now().UnixNano()
	clients := make([]*daemonClient, daemonClients)
	for c := range clients {
		clients[c] = &daemonClient{base: d.base, http: &http.Client{Transport: &http.Transport{}}}
	}
	// Warm-up: every spec once, untimed, as a long-lived daemon would
	// have run jobs before.
	warm := make([][]int, daemonClients)
	for i := 0; i < daemonSpecs; i++ {
		warm[i%daemonClients] = append(warm[i%daemonClients], i)
	}
	var warmed []jobOutcome
	for _, jobs := range runClients(clients, warm) {
		warmed = append(warmed, jobs...)
	}
	var rec *spanRecorder
	if cfg.traced {
		rec = newSpanRecorder()
		for _, c := range clients {
			c.rec = rec
		}
	}

	prof, err := startProfile(cfg.traced)
	if err != nil {
		d.stop()
		return res, err
	}
	fs0, p0 := cfs.snapshot(), readProbe()
	outcomes := runClients(clients, daemonJobs(cfg.seed))
	p0.record(readProbe(), &res)
	fsDone := cfs.snapshot().sub(fs0)
	if err := prof.stop(&res); err != nil {
		d.stop()
		return res, err
	}

	// Untimed: the server-side timestamps of every timed job.
	var all []jobOutcome
	var submit, report, wait, run []float64
	rejected := 0
	for _, jobs := range outcomes {
		for _, j := range jobs {
			all = append(all, j)
			if j.code == http.StatusTooManyRequests {
				rejected++
			}
			if j.err != nil {
				continue
			}
			res.Latencies = append(res.Latencies, j.latency.Seconds())
			submit = append(submit, j.submit.Seconds())
			report = append(report, j.report.Seconds())
			data, err := clients[0].get("/v1/jobs/" + j.id)
			var snap serve.Snapshot
			if err == nil {
				err = json.Unmarshal(data, &snap)
			}
			if err != nil || snap.Started == nil || snap.Finished == nil {
				continue // the job check below reports it
			}
			wait = append(wait, snap.Started.Sub(snap.Created).Seconds())
			run = append(run, snap.Finished.Sub(*snap.Started).Seconds())
		}
	}
	for _, c := range clients {
		c.http.CloseIdleConnections()
	}
	if err := d.stop(); err != nil {
		return res, err
	}

	res.Units = len(res.Latencies)
	recordFS(&res, fsDone, len(all))
	res.Layers["serve.submit_s"] = median(submit)
	res.Layers["serve.report_s"] = median(report)
	res.Layers["serve.queue_wait_s"] = median(wait)
	res.Layers["serve.run_s"] = median(run)
	res.Layers["serve.rejected"] = float64(rejected)
	if rec != nil {
		res.Layers["trace.self_s"] = selfTimes(rec.spans)["serve.job"].Seconds()
	}
	res.Attempted++
	if len(wait) != res.Units {
		res.fail("daemon: %d of %d completed jobs have no server-side start and finish times", res.Units-len(wait), res.Units)
	}
	checkDaemon(&res, append(warmed, all...))
	return res, saveSpans(rec, cfg, "daemon", &res)
}

// checkDaemon checks that every job ended done without a 429 and that
// each report is byte-identical to an in-process campaign of the same
// spec at the job's effective seed.
func checkDaemon(res *roundResult, jobs []jobOutcome) {
	want := make(map[int][]byte)
	h := fnv.New64a()
	for _, j := range jobs {
		res.Attempted++
		if j.err != nil || j.state != string(serve.StateDone) {
			res.fail("daemon: job %q (spec %d) ended %q: %v", j.id, j.spec, j.state, j.err)
			continue
		}
		ref, ok := want[j.spec]
		if !ok {
			ref = referenceReport(daemonSpec(j.spec))
			want[j.spec] = ref
			h.Write(ref)
		}
		if !bytes.Equal(j.body, ref) {
			res.fail("daemon: job %s (spec %d) report differs from the in-process campaign", j.id, j.spec)
		}
	}
	res.Digest = fmt.Sprintf("%016x", h.Sum64())
}

// referenceReport runs a job spec in-process, as the daemon would, and
// renders its report the way the daemon does.
func referenceReport(spec serve.JobSpec) []byte {
	runners := make([]experiments.Runner, len(spec.Experiments))
	for i, id := range spec.Experiments {
		runners[i], _ = experiments.Get(id) // the daemon accepted the ID
	}
	var report strings.Builder
	opts := experiments.Options{Seed: serve.EffectiveSeed(spec.Tenant, spec.Seed), Quick: spec.Quick}
	experiments.RunCampaign(runners, opts, experiments.Campaign{
		Parallel: 1,
		Emit: func(_ int, st experiments.Status) {
			report.WriteString(st.Result.String())
			report.WriteByte('\n')
		},
	})
	return []byte(report.String())
}
