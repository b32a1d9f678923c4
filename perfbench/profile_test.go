package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
	"time"
)

// pb builds protobuf messages for the synthetic profiles below.
type pb []byte

func (m pb) varint(field int, v uint64) pb {
	m = binary.AppendUvarint(m, uint64(field)<<3)
	return binary.AppendUvarint(m, v)
}

func (m pb) bytes(field int, b []byte) pb {
	m = binary.AppendUvarint(m, uint64(field)<<3|2)
	m = binary.AppendUvarint(m, uint64(len(b)))
	return append(m, b...)
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// syntheticProfile encodes a CPU profile with the given functions
// (name, file), locations (each a list of function indices, innermost
// first) and samples (location indices leaf first, cpu nanoseconds).
func syntheticProfile(funcs [][2]string, locs [][]int, samples []struct {
	locs []int
	ns   uint64
}) []byte {
	strs := []string{""}
	str := func(s string) uint64 {
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var m pb
	m = m.bytes(1, pb{}.varint(1, str("samples")).varint(2, str("count")))
	m = m.bytes(1, pb{}.varint(1, str("cpu")).varint(2, str("nanoseconds")))
	for i, f := range funcs {
		m = m.bytes(5, pb{}.varint(1, uint64(i+1)).varint(2, str(f[0])).varint(4, str(f[1])))
	}
	for i, l := range locs {
		loc := pb{}.varint(1, uint64(i+1))
		for _, fi := range l {
			loc = loc.bytes(4, pb{}.varint(1, uint64(fi+1)))
		}
		m = m.bytes(4, loc)
	}
	for _, s := range samples {
		var ids []uint64
		for _, l := range s.locs {
			ids = append(ids, uint64(l+1))
		}
		m = m.bytes(2, pb{}.bytes(1, packed(ids...)).bytes(2, packed(1, s.ns)))
	}
	for _, s := range strs {
		m = m.bytes(6, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(m)
	zw.Close()
	return z.Bytes()
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct{ fn, file, want string }{
		{"repro/internal/sim.(*Scheduler).Run", "/src/internal/sim/scheduler.go", "sim.scheduler_cpu_s"},
		{"repro/internal/sim.(*Medium).finish", "/src/internal/sim/medium.go", "sim.medium_cpu_s"},
		{"repro/internal/rf.(*Tracer).TraceAppend", "/src/internal/rf/tracer.go", "rf.tracer_cpu_s"},
		{"repro/internal/rf.(*RayBundle).PowerMw", "/src/internal/rf/batch.go", "rf.channel_cpu_s"},
		{"repro/internal/geom.(*Grid).Query", "/src/internal/geom/grid.go", "rf.tracer_cpu_s"},
		{"repro/internal/mac/wigig.(*Device).send.func1", "/src/internal/mac/wigig/wigig.go", "mac.cpu_s"},
		{"repro/internal/transport.(*Conn).onAck", "/src/internal/transport/tcp.go", "transport.cpu_s"},
		{"repro/internal/trace.(*BusyMeter).Observe", "/src/internal/trace/stream.go", "sniffer.cpu_s"},
		{"repro/internal/par.Sweep[go.shape.int]", "/src/internal/par/par.go", "other.cpu_s"},
		{"repro/internal/stats.(*RNG).Norm", "/src/internal/stats/rng.go", "other.cpu_s"},
	} {
		if got := layerOf(c.fn, c.file); got != c.want {
			t.Errorf("layerOf(%s) = %s, want %s", c.fn, got, c.want)
		}
	}
}

// Each sample is charged to its innermost repository frame: standard
// library and runtime frames above it (math.Exp, container/heap, write
// barriers) land on their caller, inlined frames count, and samples
// with no repository frame are unattributed.
func TestLayerCPUInnermostRepositoryFrame(t *testing.T) {
	funcs := [][2]string{
		0: {"math.Exp", "/go/src/math/exp.go"},
		1: {"repro/internal/sim.(*Medium).finish", "/src/internal/sim/medium.go"},
		2: {"repro/internal/sim.(*Scheduler).Run", "/src/internal/sim/scheduler.go"},
		3: {"container/heap.Pop", "/go/src/container/heap/heap.go"},
		4: {"runtime.gcBgMarkWorker", "/go/src/runtime/mgc.go"},
		5: {"repro/internal/rf.(*Tracer).legLoss", "/src/internal/rf/tracer.go"},
	}
	locs := [][]int{
		0: {0},    // math.Exp
		1: {1},    // Medium.finish
		2: {2},    // Scheduler.Run
		3: {3},    // container/heap.Pop
		4: {4},    // GC worker
		5: {0, 5}, // math.Exp inlined into Tracer.legLoss
	}
	samples := []struct {
		locs []int
		ns   uint64
	}{
		{[]int{0, 1, 2}, 30},  // Exp under finish under Run → medium
		{[]int{3, 2}, 20},     // heap under Run → scheduler
		{[]int{2}, 5},         // Run itself → scheduler
		{[]int{4}, 7},         // GC → unattributed
		{[]int{5, 1, 2}, 11},  // inlined Exp in the tracer → tracer
		{[]int{0, 1, 2}, 100}, // again
	}
	got, err := layerCPU(syntheticProfile(funcs, locs, samples))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"sim.medium_cpu_s":    130,
		"sim.scheduler_cpu_s": 25,
		"unattributed.cpu_s":  7,
		"rf.tracer_cpu_s":     11,
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

// A profile written by runtime/pprof itself must parse, and its CPU
// time must roughly match the time spent spinning.
func TestLayerCPURealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 1.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x = x*1.0000001 + 1e-9
	}
	pprof.StopCPUProfile()
	if x == 0 {
		t.Fatal("unreachable")
	}
	got, err := layerCPU(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := time.Duration(0)
	for k, v := range got {
		if k != "unattributed.cpu_s" {
			t.Errorf("no repository code ran, yet %s = %v", k, v)
		}
		total += v
	}
	if total < 100*time.Millisecond {
		t.Errorf("profile holds %v of CPU time, want most of 300ms", total)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := layerCPU([]byte{0x0a, 0xff}); err == nil {
		t.Error("truncated message parsed")
	}
}
