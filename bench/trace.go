package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the benchmark
// around its calls into the simulator. Spans of one op share Op, the id of
// the op's root span.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Op     int64   `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps a round's spans in memory until the round ends. A nil tracer
// records nothing, so untraced rounds pay one nil check per span.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so that children can name a parent that ends after
// them.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) add(id, parent, op int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: float64(start.Sub(t.t0)) / 1e3, End: float64(end.Sub(t.t0)) / 1e3})
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf names the layer of a function: the package under svmsim/internal
// (with internal/apps/* folded into apps), or false for any other frame.
func layerOf(fn string) (string, bool) {
	const prefix = "svmsim/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	rest := fn[len(prefix):]
	if end := strings.IndexAny(rest, "./"); end >= 0 {
		rest = rest[:end]
	}
	return rest, true
}

// attribute charges each sample's CPU time to the innermost svmsim/internal
// frame on its stack, or to runtime when there is none. Stacks list the
// innermost frame first.
func attribute(stacks [][]string, cpuNS []int64) map[string]float64 {
	out := map[string]float64{}
	for i, stack := range stacks {
		layer := "runtime"
		for _, fn := range stack {
			if l, ok := layerOf(fn); ok {
				layer = l
				break
			}
		}
		out["self_ns."+layer] += float64(cpuNS[i])
		out["self_ns.total"] += float64(cpuNS[i])
		out["self_samples"]++
	}
	return out
}

// attributeProfile reads a CPU profile written by runtime/pprof and
// attributes its samples to layers.
func attributeProfile(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	stacks, cpuNS, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return attribute(stacks, cpuNS), nil
}

// decodeProfile extracts each sample's stack (function names, innermost
// first, inlined frames included) and its last value, which for a CPU
// profile is nanoseconds. It reads just the parts of the gzipped
// profile.proto message that this needs.
func decodeProfile(raw []byte) ([][]string, []int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.values = appendPacked(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stacks := make([][]string, len(samples))
	cpuNS := make([]int64, len(samples))
	for i, s := range samples {
		if len(s.values) == 0 {
			return nil, nil, errors.New("sample without values")
		}
		cpuNS[i] = int64(s.values[len(s.values)-1])
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if n := funcs[f]; n < uint64(len(strs)) {
					stacks[i] = append(stacks[i], strs[n])
				}
			}
		}
	}
	return stacks, cpuNS, nil
}

// eachField walks one protobuf message, handing each field's number with its
// varint value (wire type 0) or its bytes (wire type 2) to fn.
func eachField(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n == 0 {
			return errors.New("truncated field key")
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = uvarint(data); n == 0 {
				return errors.New("truncated varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("truncated fixed64")
			}
			data = data[8:]
		case 2:
			l, n := uvarint(data)
			if n == 0 || uint64(len(data)-n) < l {
				return errors.New("truncated bytes")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("truncated fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrived either as one
// value or packed into bytes.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// uvarint decodes a base-128 varint, returning 0 bytes read when it is
// truncated or overflows.
func uvarint(b []byte) (uint64, int) {
	x, n := binary.Uvarint(b)
	if n < 0 {
		return 0, 0
	}
	return x, n
}
