package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// probe is a reading of the process clocks and runtime counters taken
// at the edges of a timed phase.
type probe struct {
	wall    time.Time
	cpu     time.Duration
	gcCPU   float64
	allocs  uint64
	gcCount uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readProbe() probe {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(runtimeSamples)
	return probe{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:   runtimeSamples[0].Value.Float64(),
		allocs:  runtimeSamples[1].Value.Uint64(),
		gcCount: runtimeSamples[2].Value.Uint64(),
	}
}

// record stores the timed phase between p and end in res: wall and CPU
// time, and the runtime's GC and allocation counters.
func (p probe) record(end probe, res *roundResult) {
	res.WallS = end.wall.Sub(p.wall).Seconds()
	res.CPUS = (end.cpu - p.cpu).Seconds()
	res.Layers["runtime.gc_cpu_s"] = end.gcCPU - p.gcCPU
	res.Layers["runtime.alloc_bytes"] = float64(end.allocs - p.allocs)
	res.Layers["runtime.gc_cycles"] = float64(end.gcCount - p.gcCount)
}

// cpuProfile profiles the timed phase of a traced round. Untraced
// rounds use a nil *cpuProfile, whose methods do nothing.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile(traced bool) (*cpuProfile, error) {
	if !traced {
		return nil, nil
	}
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and adds its CPU time per layer to res.
func (p *cpuProfile) stop(res *roundResult) error {
	if p == nil {
		return nil
	}
	pprof.StopCPUProfile()
	layers, err := layerCPU(p.buf.Bytes())
	if err != nil {
		return err
	}
	for name, d := range layers {
		res.Layers[name] += d.Seconds()
	}
	return nil
}

// saveSpans reduces a traced round's spans: it writes them out under
// the benchmark's build directory and reports their count.
func saveSpans(rec *spanRecorder, cfg roundConfig, workload string, res *roundResult) error {
	if rec == nil {
		return nil
	}
	res.Layers["trace.spans"] = float64(len(rec.spans))
	dir := filepath.Join(buildDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return rec.writeFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-round%d.json", workload, cfg.seed, cfg.round)))
}
