package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file folds pprof profiles (CPU and heap) into per-layer totals with
// the standard library only: a minimal decoder for the fields of
// profile.proto the folding needs, and a package-to-layer map.

// Layers are the repository's modules a profile sample can be charged to,
// plus the standard-library layers the control plane spends time in and a
// catch-all. Output order is this order.
var layers = []string{
	"sim", "sched", "rms", "fabric", "grid", "faults", "jss", "hdl",
	"controlplane", "runtime", "encoding_json", "net", "other",
}

// repoLayers are the repository packages (under repro/internal/) that are
// layers of their own. Other repository packages (node, pe, capability,
// obs, …) are helpers: a sample inside one is charged to its caller.
var repoLayers = map[string]bool{
	"sim": true, "sched": true, "rms": true, "fabric": true, "grid": true,
	"faults": true, "jss": true, "hdl": true, "controlplane": true,
}

// funcPackage returns the import path of a pprof function name such as
// "repro/internal/fabric.(*Allocator).AllocAt".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // generic instantiations may quote other paths
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// layerOf maps a package to its layer, or "" for a package whose samples
// belong to whoever called it.
func layerOf(pkg string) string {
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		mod, _, _ := strings.Cut(strings.TrimPrefix(pkg, "repro/internal/"), "/")
		if repoLayers[mod] {
			return mod
		}
	case pkg == "encoding/json":
		return "encoding_json"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll" || pkg == "syscall":
		return "net"
	case pkg == "main" || pkg == "repro/bench":
		// The benchmark's own code (load generator, probes, tracer): its
		// cost is not any layer's.
		return "other"
	}
	return ""
}

// isRuntime reports whether pkg belongs to the Go runtime.
func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// classify charges one sample, given its stack from leaf to root, to the
// innermost frame that belongs to a layer. A runtime leaf under a layer
// (an allocation, a write barrier) is that layer's cost; a stack with no
// layer frame at all is the runtime's own work (GC, scheduling) when its
// leaf is in the runtime, and "other" otherwise.
func classify(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(funcPackage(fn)); l != "" {
			return l
		}
	}
	if len(stack) > 0 && isRuntime(funcPackage(stack[0])) {
		return "runtime"
	}
	return "other"
}

// profile is the decoded subset of a pprof profile.
type profile struct {
	sampleTypes []string
	samples     []sample
	// locations maps a location ID to its function IDs, innermost first
	// (inlined frames precede the function they were inlined into).
	locations map[uint64][]uint64
	// functions maps a function ID to its name's string-table index.
	functions map[uint64]int64
	strings   []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

// fold sums the named sample value per layer. Every layer in layers is
// present in the result, zero when no sample landed there.
func (p *profile) fold(sampleType string) (map[string]float64, error) {
	idx := -1
	for i, t := range p.sampleTypes {
		if t == sampleType {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("profile has no %q samples (has %q)", sampleType, p.sampleTypes)
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	var stack []string
	for _, s := range p.samples {
		if idx >= len(s.values) {
			return nil, errors.New("profile sample with too few values")
		}
		stack = stack[:0]
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				stack = append(stack, p.str(p.functions[fn]))
			}
		}
		out[classify(stack)] += float64(s.values[idx])
	}
	return out, nil
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// parseProfile decodes a pprof profile, gzip-compressed (as runtime/pprof
// writes it) or not.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	var typeIdx []int64
	err := eachField(data, func(f int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			var t int64
			if err := eachField(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					t = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			typeIdx = append(typeIdx, t)
		case 2: // sample
			var s sample
			if err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locations, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for _, t := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, p.str(t))
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped; no field this decoder needs uses them.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (data non-nil) or
// not.
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
