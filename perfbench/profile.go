package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
	"time"
)

// This file reduces a runtime/pprof CPU profile to CPU time per layer.
// Each sample goes to its innermost frame inside repro/internal, so
// runtime and standard-library work (container/heap, math.Exp, write
// barriers) lands on the repository function that called it. Samples
// with no such frame (GC workers, the HTTP stack, the benchmark's own
// code) are "unattributed".

// internalPrefix marks the repository's packages in function names.
const internalPrefix = "repro/internal/"

// layerOf maps a repository function to its layer metric. fn is the
// full function name, file its source path.
func layerOf(fn, file string) string {
	pkg := strings.TrimPrefix(fn, internalPrefix)
	if i := strings.IndexByte(pkg, '['); i >= 0 { // generic instantiation
		pkg = pkg[:i]
	}
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	top, _, _ := strings.Cut(pkg, "/")
	base := path.Base(file)
	switch top {
	case "sim":
		if base == "scheduler.go" {
			return "sim.scheduler_cpu_s"
		}
		return "sim.medium_cpu_s"
	case "rf":
		if base == "tracer.go" || base == "naive.go" {
			return "rf.tracer_cpu_s"
		}
		return "rf.channel_cpu_s"
	case "geom": // the tracer's geometry and spatial index
		return "rf.tracer_cpu_s"
	case "antenna", "mac", "transport", "serve":
		return top + ".cpu_s"
	case "sniffer", "trace": // capture and its analysis
		return "sniffer.cpu_s"
	}
	return "other.cpu_s"
}

// layerCPU decodes a CPU profile and returns CPU time per layer metric.
func layerCPU(profile []byte) (map[string]time.Duration, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, err
	}
	valueIdx := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	// Resolve each location to the layer of its innermost repository
	// frame, once.
	locLayer := make(map[uint64]string, len(p.locations))
	for id, lines := range p.locations {
		for _, fid := range lines { // innermost (inlined) first
			f := p.functions[fid]
			if name := p.str(f.name); strings.HasPrefix(name, internalPrefix) {
				locLayer[id] = layerOf(name, p.str(f.file))
				break
			}
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range p.samples {
		if valueIdx >= len(s.values) {
			return nil, errors.New("profile sample is missing its cpu value")
		}
		layer := "unattributed.cpu_s"
		for _, loc := range s.locations { // leaf first
			if l, ok := locLayer[loc]; ok {
				layer = l
				break
			}
		}
		out[layer] += time.Duration(s.values[valueIdx])
	}
	return out, nil
}

// profile is the part of profile.proto the reduction needs.
type profile struct {
	strings     []string
	sampleTypes []int64 // string indices
	samples     []sample
	// locations maps a location ID to the function IDs of its lines,
	// innermost first.
	locations map[uint64][]uint64
	functions map[uint64]function
}

type sample struct {
	locations []uint64
	values    []int64
}

type function struct {
	name, file int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// parseProfile decodes a gzip-compressed profile.proto message.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]function{}}
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample: {location_id=1, value=2}
			var s sample
			err := eachField(b, func(n, w int, v uint64, bb []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locations, w, v, bb)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, bb); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: {id=1, line=4{function_id=1}}
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(bb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function: {id=1, name=2, filename=4}
			var id uint64
			var f function
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			p.functions[id] = f
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks a protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
