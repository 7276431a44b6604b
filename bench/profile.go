package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile runtime/pprof writes is a gzipped profile.proto message.
// The benchmark reads the few fields it needs with the small protobuf
// reader below instead of depending on a profile library.

// profile is the decoded subset: samples as leaf-first location lists with
// their CPU time, and each location's function names, innermost first.
type profile struct {
	samples   []sample
	locations map[uint64][]string
}

type sample struct {
	locs  []uint64
	value int64 // the last sample value: CPU nanoseconds
}

// pbReader walks one protobuf message's fields.
type pbReader struct {
	b []byte
}

func (r *pbReader) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		c := r.b[0]
		r.b = r.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// next returns the next field's number and wire type, plus its payload for
// length-delimited fields or its value for varints; fixed-width fields are
// skipped (value 0, nil payload).
func (r *pbReader) next() (field int, wire int, val uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val, err = r.varint()
	case 1, 5:
		n := 8
		if wire == 5 {
			n = 4
		}
		if len(r.b) < n {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		r.b = r.b[n:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.b)) {
				return 0, 0, 0, nil, io.ErrUnexpectedEOF
			}
			payload, r.b = r.b[:n], r.b[n:]
		}
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	return field, wire, val, payload, err
}

// ints appends a repeated integer field's values, packed or not.
func ints(dst []uint64, wire int, val uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, val), nil
	}
	r := pbReader{payload}
	for len(r.b) > 0 {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// parseProfile decodes a gzipped CPU profile.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		p        = &profile{locations: map[uint64][]string{}}
		strs     []string
		funcName = map[uint64]uint64{}   // function id -> name string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	r := pbReader{raw}
	for len(r.b) > 0 {
		field, _, _, payload, err := r.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			var s sample
			var vals []uint64
			sr := pbReader{payload}
			for len(sr.b) > 0 {
				f, w, v, pl, err := sr.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = ints(s.locs, w, v, pl)
				case 2:
					vals, err = ints(vals, w, v, pl)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			lr := pbReader{payload}
			for len(lr.b) > 0 {
				f, _, v, pl, err := lr.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					ln := pbReader{pl}
					for len(ln.b) > 0 {
						lf, _, lv, _, err := ln.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			fr := pbReader{payload}
			for len(fr.b) > 0 {
				f, _, v, _, err := fr.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}
	for id, fns := range locFuncs {
		names := make([]string, len(fns))
		for i, fn := range fns {
			if k := funcName[fn]; k < uint64(len(strs)) {
				names[i] = strs[k]
			}
		}
		p.locations[id] = names
	}
	return p, nil
}

// fold attributes every sample's CPU time to one layer and returns each
// layer's share of the total. A sample goes to the first frame, walking
// from the leaf toward the root, that layerOf classifies; standard-library
// frames (sorting, maps, memmove, encoding) are charged to the layer that
// called them.
func (p *profile) fold() map[string]float64 {
	byLayer := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		layer := "other"
	walk:
		for _, loc := range s.locs {
			for _, fn := range p.locations[loc] {
				if l := layerOf(fn); l != "" {
					layer = l
					break walk
				}
			}
		}
		byLayer[layer] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for l := range byLayer {
			byLayer[l] /= total
		}
	}
	return byLayer
}

// gcPrefixes and allocPrefixes name the runtime's collector and allocator.
var (
	gcPrefixes = []string{
		"runtime.gc", "runtime.(*gc", "runtime._GC", "runtime.markroot", "runtime.scan",
		"runtime.greyobject", "runtime.shade", "runtime.wbBuf", "runtime.bulkBarrier",
		"runtime.bgsweep", "runtime.sweepone", "runtime.(*sweepLocked)", "runtime.(*mspan).sweep",
		"runtime.bgscavenge", "runtime.(*scavenger", "runtime.(*pageAlloc).scavenge",
		"runtime.findObject", "runtime.(*mheap).reclaim", "runtime.(*gcBits",
	}
	allocPrefixes = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.(*mcache)", "runtime.(*mcentral)",
		"runtime.(*mheap)", "runtime.nextFreeFast", "runtime.(*mspan)", "runtime.heapSetType",
		"runtime.(*pageAlloc)", "runtime.(*fixalloc)", "runtime.persistentalloc",
	}
)

// layerOf maps one function symbol to its layer, or "" when the frame is a
// library frame whose time belongs to its caller.
func layerOf(fn string) string {
	for _, p := range gcPrefixes {
		if strings.HasPrefix(fn, p) {
			return "runtime.gc"
		}
	}
	for _, p := range allocPrefixes {
		if strings.HasPrefix(fn, p) {
			return "runtime.alloc"
		}
	}
	if strings.HasPrefix(fn, "encoding/xml.") {
		return "manifest"
	}
	const internal = "demuxabr/internal/"
	if !strings.HasPrefix(fn, internal) {
		return ""
	}
	name := fn[len(internal):]
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // type arguments may hold further package paths
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return "other"
	}
	pkg, sym := name[:slash+1+dot], name[slash+1+dot+1:]
	switch {
	case pkg == "netsim":
		return "netsim." + netsimPart(sym)
	case pkg == "abr":
		return "abr"
	case strings.HasPrefix(pkg, "abr/"):
		return "abr." + strings.ReplaceAll(pkg[len("abr/"):], "/", ".")
	case strings.HasPrefix(pkg, "manifest"):
		return "manifest"
	}
	if i := strings.IndexByte(pkg, '/'); i >= 0 {
		pkg = pkg[:i]
	}
	return pkg
}

// netsimPart splits netsim into its three layers by receiver type (or, for
// plain functions, by name): the event engine and its calendar queue, the
// transport connections, and the fluid link/uplink solver.
func netsimPart(sym string) string {
	key := sym
	if strings.HasPrefix(key, "(*") {
		key = key[2:]
	}
	if i := strings.IndexAny(key, ".)"); i >= 0 {
		key = key[:i]
	}
	lower := strings.ToLower(key)
	switch {
	case strings.Contains(lower, "engine"), strings.Contains(lower, "queue"),
		strings.Contains(lower, "event"), strings.Contains(lower, "heap"):
		return "engine"
	case strings.Contains(lower, "conn"), strings.Contains(lower, "transport"):
		return "transport"
	}
	return "solver"
}
