package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// cpuLayers are the layers whose CPU share the traced run reports, in
// print order. Every sample lands in exactly one of them or in "other".
var cpuLayers = []string{"wire", "server", "core", "vcache", "iosched", "nvm", "fp16", "gc", "syscall", "other"}

// gcRoots mark a stack as garbage-collector work wherever they appear.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkTermination",
}

// syscallLeaves mark a stack as kernel-entry time when its leaf is one of
// them: device preads and pwrites, socket reads and writes, and the
// scheduler's futex and epoll waits.
var syscallLeaves = []string{
	"syscall.", "internal/runtime/syscall.", "runtime/internal/syscall.",
	"runtime.futex", "runtime.epollwait", "runtime.usleep",
}

// classify assigns one sample's stack (function names, leaf first) to a
// layer: garbage collection first, then a syscall leaf, then the innermost
// bandana package on the stack.
func classify(stack []string) string {
	for _, fn := range stack {
		for _, r := range gcRoots {
			if strings.HasPrefix(fn, r) {
				return "gc"
			}
		}
	}
	if len(stack) > 0 {
		for _, s := range syscallLeaves {
			if strings.HasPrefix(stack[0], s) {
				return "syscall"
			}
		}
	}
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, "bandana/internal/")
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(rest, ".")
		for _, l := range cpuLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	return "other"
}

// cpuShares reads a CPU profile written by runtime/pprof and returns each
// layer's share of the sampled CPU time.
func cpuShares(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	stacks, values, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	shares := map[string]float64{}
	var total float64
	for i, st := range stacks {
		shares[classify(st)] += values[i]
		total += values[i]
	}
	for k := range shares {
		shares[k] = ratio(shares[k], total)
	}
	return shares, nil
}

// decodeProfile extracts, for every sample of a gzipped profile.proto, its
// stack as function names (leaf first, inlined frames expanded) and its
// last value (CPU nanoseconds for a CPU profile). Only the fields it needs
// are decoded.
func decodeProfile(gz []byte) ([][]string, []float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, err
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	type sample struct {
		locs []uint64
		val  int64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]int64{}    // function id -> string index
		strs     []string
	)
	err = fields(b, func(num int, wt int, v uint64, msg []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := fields(msg, func(num, wt int, v uint64, m []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wt, v, m)
				case 2:
					if vals := appendVarints(nil, wt, v, m); len(vals) > 0 {
						s.val = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(msg, func(num, wt int, v uint64, m []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(m, func(num, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(msg, func(num, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stacks := make([][]string, len(samples))
	values := make([]float64, len(samples))
	for i, s := range samples {
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if n := funcName[f]; n >= 0 && int(n) < len(strs) {
					stacks[i] = append(stacks[i], strs[n])
				}
			}
		}
		values[i] = float64(s.val)
	}
	return stacks, values, nil
}

var errBadProto = errors.New("malformed profile")

// fields walks the protobuf fields of b, calling fn with the field number,
// wire type, and either the varint value or the length-delimited bytes.
func fields(b []byte, fn func(num, wt int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		num, wt := int(tag>>3), int(tag&7)
		var v uint64
		var msg []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errBadProto
		}
		if err := fn(num, wt, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed (wire type 2) or
// not.
func appendVarints(dst []uint64, wt int, v uint64, packed []byte) []uint64 {
	if wt != 2 {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
