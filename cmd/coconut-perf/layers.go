package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the simulator's modules under internal/ that a CPU sample
// can be attributed to, plus the runtime buckets for samples with no
// module frame. clock.goid is the part of clock spent in clock.goid.
var layers = []string{
	"clock", "clock.goid", "network", "consensus", "systems", "wal", "chain",
	"statestore", "iel", "mempool", "crypto", "workload", "coconut", "faults",
	"trace", "experiments", "runtime.gc", "runtime.sched", "unattributed",
}

const modulePrefix = "github.com/coconut-bench/coconut/internal/"

// gcFuncs and schedFuncs classify samples with no module frame by the
// runtime functions on their stack.
var (
	gcFuncs = []string{
		"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.gcStart", "runtime.markroot",
		"runtime.scanobject", "runtime.sweepone", "runtime.gcAssistAlloc", "runtime._GC",
	}
	schedFuncs = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.mstart", "runtime.mcall",
		"runtime.park_m", "runtime.goexit0", "runtime.gosched_m", "runtime.sysmon",
		"runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.ready", "runtime.goready",
		"runtime.futex", "runtime.usleep", "runtime.osyield", "runtime._System",
	}
)

// layerOf attributes one sample, given its stack leaf first, to the
// innermost internal/<layer> frame; failing that, to runtime.gc or
// runtime.sched by the runtime functions on the stack.
func layerOf(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, modulePrefix)
		if !ok {
			continue
		}
		if rest == "clock.goid" {
			return "clock.goid"
		}
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	for _, set := range []struct {
		layer string
		funcs []string
	}{{"runtime.gc", gcFuncs}, {"runtime.sched", schedFuncs}} {
		for _, fn := range stack {
			for _, f := range set.funcs {
				if fn == f || strings.HasPrefix(fn, f+".") {
					return set.layer
				}
			}
		}
	}
	return "unattributed"
}

// layerCPU is CPU time by layer from one or more profiles, in
// nanoseconds. A clock.goid sample counts toward both clock and
// clock.goid; samples is the total of every sample once.
type layerCPU struct {
	ns      map[string]float64
	samples float64
	// attributed counts the samples that landed on a named layer.
	attributed float64
}

func (l *layerCPU) addSample(stack []string, ns float64) {
	if l.ns == nil {
		l.ns = make(map[string]float64)
	}
	layer := layerOf(stack)
	l.ns[layer] += ns
	if layer == "clock.goid" {
		l.ns["clock"] += ns
	}
	l.samples++
	if layer != "unattributed" {
		l.attributed++
	}
}

// foldProfile adds every sample of a gzipped pprof CPU profile to l.
func (l *layerCPU) foldProfile(data []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	// The CPU profile's sample types are (samples/count, cpu/nanoseconds).
	vi := p.sampleTypes - 1
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			return errors.New("cpu profile: sample without a cpu value")
		}
		var stack []string
		for _, id := range s.locations {
			for _, fid := range p.locations[id] {
				stack = append(stack, p.strings[p.functions[fid]])
			}
		}
		l.addSample(stack, float64(s.values[vi]))
	}
	return nil
}

// profile is the part of a pprof profile the layer fold reads. Location
// lines are leaf first, as pprof stores inlined frames.
type profile struct {
	sampleTypes int
	samples     []profSample
	locations   map[uint64][]uint64 // location id -> function ids
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

type profSample struct {
	locations []uint64
	values    []int64
}

// decodeProfile decodes the protobuf encoding of a pprof Profile message
// (github.com/google/pprof/proto/profile.proto), keeping samples,
// locations, functions and the string table.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, msg []byte) error {
		switch field {
		case 1: // sample_type
			p.sampleTypes++
		case 2: // sample
			var s profSample
			err := eachField(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locations, w, v, m)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, w, v, m); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(m, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := eachField(msg, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, msg []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := varint(msg)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes one base-128 varint, returning the value and the bytes
// read (0 or less on malformed input).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
