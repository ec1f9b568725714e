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

// This file reads the CPU profiles runtime/pprof writes (gzipped
// profile.proto) with the standard library alone and attributes every
// sample to a repository module.

// repoPrefix is the import-path prefix of the program's modules.
const repoPrefix = "repro/internal/"

// moduleShares attributes each CPU sample of a runtime/pprof profile to the
// innermost frame that belongs to a repository module (repro/internal/<m>)
// and returns each module's share of the sampled CPU time. Samples with no
// repository frame, such as garbage collection workers, count as
// "runtime".
func moduleShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	// The CPU value is the last sample type ("cpu", nanoseconds).
	valueIdx := p.sampleTypes - 1
	if valueIdx < 0 {
		return nil, errors.New("cpu profile: no sample types")
	}
	moduleOf := map[uint64]string{} // location ID -> innermost repo module
	for id, loc := range p.locations {
		for _, fn := range loc { // innermost (inlined) function first
			if m := repoModule(p.strings[p.functions[fn]]); m != "" {
				moduleOf[id] = m
				break
			}
		}
	}
	totals := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if valueIdx >= len(s.values) {
			return nil, errors.New("cpu profile: sample without a cpu value")
		}
		v := s.values[valueIdx]
		mod := "runtime"
		for _, loc := range s.locations { // leaf first
			if m, ok := moduleOf[loc]; ok {
				mod = m
				break
			}
		}
		totals[mod] += v
		total += v
	}
	shares := map[string]float64{}
	if total == 0 {
		return shares, nil
	}
	for m, v := range totals {
		shares[m] = float64(v) / float64(total)
	}
	return shares, nil
}

// repoModule returns the module of a fully qualified function name such as
// "repro/internal/sim.(*Engine).RunUntil", or "" for other code.
func repoModule(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// profile holds the parts of profile.proto the attribution needs.
type profile struct {
	sampleTypes int
	samples     []sample
	locations   map[uint64][]uint64 // location ID -> function IDs, innermost first
	functions   map[uint64]int64    // function ID -> name string index
	strings     []string
}

type sample struct {
	locations []uint64
	values    []int64
}

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case profSampleType:
			p.sampleTypes++
		case profSample:
			var s sample
			err := eachField(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case sampleLocationID:
					return appendVarints(&s.locations, wire, v, data)
				case sampleValue:
					var vals []uint64
					if err := appendVarints(&vals, wire, v, data); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(data, func(num int, wire int, v uint64, _ []byte) error {
						if num == lineFunction {
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
		case profFunction:
			var id uint64
			var name int64
			err := eachField(data, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case profStringTable:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, name, len(p.strings))
		}
	}
	for id, fns := range p.locations {
		for _, fn := range fns {
			if _, ok := p.functions[fn]; !ok {
				return nil, fmt.Errorf("location %d names unknown function %d", id, fn)
			}
		}
	}
	return p, nil
}

// Protobuf wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

// eachField calls fn for every field of one protobuf message: v holds a
// varint or fixed-width value, data a length-delimited payload.
func eachField(b []byte, fn func(num int, wire int, v uint64, data []byte) error) error {
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
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case wire64:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case wire32:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == wireVarint {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
