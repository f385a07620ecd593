package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// selfCPU decodes a runtime/pprof CPU profile (gzipped profile.proto)
// and returns the CPU nanoseconds each function spent as the innermost
// frame of a sample: its self time. Only the fields that question needs
// are read — samples, locations with their lines, functions, and the
// string table — so the decoder stays a page of protobuf wire parsing
// instead of a dependency.
func selfCPU(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples  []sample
		leafFunc = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]int64{}  // function id -> string index
		strtab   []string
		valueIdx = -1 // which sample value is CPU nanoseconds
		types    [][2]int64
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type, unit}
			var t [2]int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample: {location_id, value}
			var s sample
			err := fields(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					return varints(v, p, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(v, p, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location: {id, line{function_id}}; line[0] is innermost
			var id, fn uint64
			haveLine := false
			err := fields(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					if haveLine {
						return nil
					}
					haveLine = true
					return fields(p, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			leafFunc[id] = fn
			return err
		case 5: // function: {id, name}
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for i, t := range types {
		if t[0] >= 0 && t[0] < int64(len(strtab)) && t[1] < int64(len(strtab)) &&
			strtab[t[0]] == "cpu" && strtab[t[1]] == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("cpu profile: no cpu/nanoseconds sample type")
	}
	self := make(map[string]int64)
	for _, s := range samples {
		if len(s.locs) == 0 || valueIdx >= len(s.values) {
			continue
		}
		name := "unknown"
		if si, ok := funcName[leafFunc[s.locs[0]]]; ok && si >= 0 && si < int64(len(strtab)) {
			name = strtab[si]
		}
		self[name] += s.values[valueIdx]
	}
	return self, nil
}

// fields walks one protobuf message, calling f with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped; profile.proto uses none of them for
// what selfCPU reads.
func fields(b []byte, f func(num int, v uint64, p []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			p := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := f(num, 0, p); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// varints hands a repeated varint field to add: one value when it was
// encoded unpacked (p nil), every value of p when packed.
func varints(v uint64, p []byte, add func(uint64)) error {
	if p == nil {
		add(v)
		return nil
	}
	for len(p) > 0 {
		x, n := uvarint(p)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		p = p[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// modulePrefix is the import-path prefix of the repository's packages.
const modulePrefix = "github.com/hobbitscan/hobbit/internal/"

// cpuBuckets are the packages the traced run reports self CPU for:
// the pipeline's layers, the rng and iputil helpers the simulator
// leans on, the Go runtime, "bench" for this benchmark's own wrappers,
// and "other" for everything else (the standard library and the
// repository's smaller packages).
var cpuBuckets = []string{
	"netsim", "faultplan", "zmap", "probe", "hobbit", "aggregate",
	"cluster", "mcl", "core", "monitor", "rng", "iputil", "runtime",
	"bench", "other",
}

// pkgBucket maps a profiled function name onto a cpuBuckets entry.
func pkgBucket(fn string) string {
	switch {
	case strings.HasPrefix(fn, modulePrefix):
		pkg := strings.TrimPrefix(fn, modulePrefix)
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, b := range cpuBuckets {
			if b == pkg {
				return b
			}
		}
		return "other"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	}
	return "other"
}
