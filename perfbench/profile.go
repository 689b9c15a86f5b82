package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
)

// cpuProfile is a CPU profile recorded in memory.
type cpuProfile struct{ buf bytes.Buffer }

// startCPUProfile starts profiling, or returns nil when a profile is
// already running.
func startCPUProfile() *cpuProfile {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil
	}
	return p
}

// stop ends the profile and returns the CPU share per layer label.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return cpuShares(p.buf.Bytes())
}

// errProto reports a malformed profile.
var errProto = errors.New("perfbench: malformed profile")

// cpuShares decodes a gzipped pprof CPU profile and returns the share of
// sampled CPU time per value of the "layer" label; unlabelled time is
// keyed "runtime". Only the fields needed are decoded: Profile.sample
// (2) with Sample.value (2) and Sample.label (3), and
// Profile.string_table (6).
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		value  int64      // last value: CPU nanoseconds
		labels [][2]int64 // (key, str) string-table indices
	}
	var samples []sample
	var strs []string
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch {
		case field == 2 && wire == 2:
			var s sample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch {
				case f == 2 && w == 0:
					s.value = int64(v)
				case f == 2 && w == 2:
					return eachVarint(b, func(v uint64) { s.value = int64(v) })
				case f == 3 && w == 2:
					var k, str int64
					if err := eachField(b, func(f, w int, v uint64, _ []byte) error {
						if w == 0 && f == 1 {
							k = int64(v)
						}
						if w == 0 && f == 2 {
							str = int64(v)
						}
						return nil
					}); err != nil {
						return err
					}
					s.labels = append(s.labels, [2]int64{k, str})
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case field == 6 && wire == 2:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	byLayer := map[string]float64{}
	var total float64
	for _, s := range samples {
		layer := "runtime"
		for _, kv := range s.labels {
			if int(kv[0]) < len(strs) && strs[kv[0]] == "layer" && int(kv[1]) < len(strs) {
				layer = strs[kv[1]]
			}
		}
		byLayer[layer] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for k := range byLayer {
			byLayer[k] /= total
		}
	}
	return byLayer, nil
}

// eachField walks the protobuf message b, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint walks a packed repeated varint field.
func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
