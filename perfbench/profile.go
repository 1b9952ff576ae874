package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"slices"
	"strings"
)

// Layers are the repository's packages. A CPU sample is charged to the
// layer of its innermost frame; a standard-library frame (math/rand,
// slices, container/heap, ...) is charged to the nearest repository caller
// above it, and runtime frames (allocation, GC, maps, scheduling) to
// "runtime". Frames of this program count as "bench"; samples that reach
// no layer at all count as "other".
var layers = []string{
	"flat", "event", "service", "sim", "core", "runtime",
	"mc", "msgnet", "hunt", "check",
	"exp", "graph", "fault", "baseline", "wave", "multi", "trace", "obs", "transform",
	"bench", "other",
}

// profiler captures one CPU profile at a time into memory.
type profiler struct{ buf bytes.Buffer }

func (p *profiler) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

// stop ends the capture and returns CPU nanoseconds per layer.
func (p *profiler) stop() (map[string]int64, error) {
	pprof.StopCPUProfile()
	return attribute(p.buf.Bytes())
}

const repoPrefix = "snappif/internal/"

// layerOf classifies one frame by its function's package. The second
// result is false for standard-library code outside the runtime, which is
// charged to its caller.
func layerOf(fn string) (string, bool) {
	pkg := funcPackage(fn)
	switch {
	case pkg == "main" || pkg == "snappif/perfbench":
		return "bench", true
	case strings.HasPrefix(pkg, repoPrefix):
		name, _, _ := strings.Cut(pkg[len(repoPrefix):], "/")
		if slices.Contains(layers, name) {
			return name, true
		}
		return "other", true
	case pkg == "snappif" || strings.HasPrefix(pkg, "snappif/"):
		return "other", true
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") ||
		strings.HasPrefix(pkg, "internal/") || pkg == "sync/atomic" || fn == "":
		return "runtime", true
	}
	return "", false
}

// funcPackage extracts the import path from a symbol such as
// "snappif/internal/flat.(*Runner).refresh" or "slices.SortFunc[...]".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// attribute decodes a gzipped pprof CPU profile and sums its CPU
// nanoseconds per layer.
func attribute(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	for _, s := range prof.samples {
		out[prof.layerOfStack(s.locs)] += s.ns
	}
	return out, nil
}

// profile holds just the parts of profile.proto the attribution needs.
type profile struct {
	strs     []string
	funcName map[uint64]int64    // function id → string index
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	samples  []sample
}

type sample struct {
	locs []uint64
	ns   int64
}

func (p *profile) layerOfStack(locs []uint64) string {
	for _, loc := range locs {
		for _, fid := range p.locFuncs[loc] {
			name := ""
			if si := p.funcName[fid]; si >= 0 && int(si) < len(p.strs) {
				name = p.strs[si]
			}
			if l, ok := layerOf(name); ok {
				return l
			}
		}
	}
	return "other"
}

// decodeProfile parses the uncompressed profile.proto message. Field
// numbers follow github.com/google/pprof/proto/profile.proto.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{funcName: map[uint64]int64{}, locFuncs: map[uint64][]uint64{}}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var raws []rawSample
	var sampleTypes []int64 // string index of each sample value's type
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var typ int64
			if err := eachField(data, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			sampleTypes = append(sampleTypes, typ)
		case 2: // sample: location_id=1, value=2
			var s rawSample
			if err := eachField(data, func(n, w int, v uint64, d []byte) error {
				switch n {
				case 1:
					return appendVarints(w, v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendVarints(w, v, d, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				}
				return nil
			}); err != nil {
				return err
			}
			raws = append(raws, s)
		case 4: // location: id=1, line=4 (Line{function_id=1})
			var id uint64
			var fids []uint64
			if err := eachField(data, func(n, _ int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(d, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = fids
		case 5: // function: id=1, name=2
			var id uint64
			name := int64(-1)
			if err := eachField(data, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcName[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	cpu := slices.IndexFunc(sampleTypes, func(t int64) bool { return t >= 0 && int(t) < len(p.strs) && p.strs[t] == "cpu" })
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	for _, r := range raws {
		if cpu < len(r.vals) {
			p.samples = append(p.samples, sample{locs: r.locs, ns: r.vals[cpu]})
		}
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire type 0) or payload (wire type 2).
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
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
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated scalar in either encoding: one varint
// (wire type 0) or a packed run (wire type 2).
func appendVarints(wire int, v uint64, data []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		data = data[n:]
	}
	return nil
}
