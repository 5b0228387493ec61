package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// The CPU profile is read with a minimal decoder of the pprof protobuf
// format (profile.proto), enough to attribute samples to packages; the
// benchmark depends on nothing outside the standard library.

// profSample is one sample: its leaf-first location ids, its last value
// (CPU nanoseconds for a CPU profile) and its string labels.
type profSample struct {
	locs   []uint64
	value  int64
	labels map[string]string
}

type profile struct {
	samples []profSample
	leafFn  map[uint64]uint64 // location id -> innermost function id
	fnName  map[uint64]string
}

func readProfile(path string) (*profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	return parseProfile(raw)
}

type pbField struct {
	num    int
	varint uint64
	bytes  []byte // length-delimited payload; nil for varints
}

var errProto = errors.New("malformed protobuf")

// pbFields splits one protobuf message into its fields. Fixed-width fields
// are skipped; profile.proto uses none the decoder needs.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return nil, errProto
		}
		b = b[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return nil, errProto
			}
			f.varint, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return nil, errProto
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			b = b[4:]
			continue
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbRepeated returns the values of a repeated varint field, packed or not.
func pbRepeated(f pbField) ([]uint64, error) {
	if f.bytes == nil {
		return []uint64{f.varint}, nil
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n := pbVarint(b)
		if n == 0 {
			return nil, errProto
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func parseProfile(raw []byte) (*profile, error) {
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{leafFn: map[uint64]uint64{}, fnName: map[uint64]string{}}
	var strs []string
	type rawLabel struct{ key, str uint64 }
	var sampleLabels [][]rawLabel
	fnNameIdx := map[uint64]uint64{}
	for _, f := range top {
		switch f.num {
		case 2: // Sample
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s profSample
			var labels []rawLabel
			for _, sf := range fs {
				switch sf.num {
				case 1:
					v, err := pbRepeated(sf)
					if err != nil {
						return nil, err
					}
					s.locs = append(s.locs, v...)
				case 2:
					v, err := pbRepeated(sf)
					if err != nil {
						return nil, err
					}
					if len(v) > 0 {
						s.value = int64(v[len(v)-1])
					}
				case 3:
					lf, err := pbFields(sf.bytes)
					if err != nil {
						return nil, err
					}
					var l rawLabel
					for _, x := range lf {
						switch x.num {
						case 1:
							l.key = x.varint
						case 2:
							l.str = x.varint
						}
					}
					labels = append(labels, l)
				}
			}
			p.samples = append(p.samples, s)
			sampleLabels = append(sampleLabels, labels)
		case 4: // Location
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, fn uint64
			leafSeen := false
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.varint
				case 4:
					if leafSeen {
						continue // the first line is the innermost inlined call
					}
					leafSeen = true
					xs, err := pbFields(lf.bytes)
					if err != nil {
						return nil, err
					}
					for _, x := range xs {
						if x.num == 1 {
							fn = x.varint
						}
					}
				}
			}
			p.leafFn[id] = fn
		case 5: // Function
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, x := range fs {
				switch x.num {
				case 1:
					id = x.varint
				case 2:
					name = x.varint
				}
			}
			fnNameIdx[id] = name
		case 6: // string_table
			strs = append(strs, string(f.bytes))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for id, idx := range fnNameIdx {
		p.fnName[id] = str(idx)
	}
	for i, ls := range sampleLabels {
		if len(ls) == 0 {
			continue
		}
		p.samples[i].labels = map[string]string{}
		for _, l := range ls {
			p.samples[i].labels[str(l.key)] = str(l.str)
		}
	}
	return p, nil
}

// shareLayers are the layers simulate.cpu_share reports: six simulator
// packages, the Go runtime (coroutine switches, allocation, GC assists),
// and everything else (workload bodies, the commtm API).
var shareLayers = []string{"engine", "core", "memsys", "cache", "noc", "mem", "runtime", "other"}

// layerOfFunc maps a function symbol to its simulate.cpu_share layer.
func layerOfFunc(name string) string {
	pkg := name
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "commtm/internal/"):
		l := strings.TrimPrefix(pkg, "commtm/internal/")
		for _, s := range shareLayers[:6] {
			if l == s {
				return s
			}
		}
	case pkg == "runtime", pkg == "iter", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// cpuShares returns, over the samples labeled key=val, each layer's share
// of CPU time by the package of the innermost function, and the labeled
// CPU seconds.
func (p *profile) cpuShares(key, val string) (map[string]float64, float64) {
	shares := map[string]float64{}
	var total int64
	for _, s := range p.samples {
		if s.labels[key] != val || len(s.locs) == 0 {
			continue
		}
		total += s.value
		shares[layerOfFunc(p.fnName[p.leafFn[s.locs[0]]])] += float64(s.value)
	}
	for _, l := range shareLayers {
		if total > 0 {
			shares[l] /= float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, float64(total) / 1e9
}
