package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Spans. The benchmark records one span around every call it makes
// into a module; spans stay in memory and are written when the run
// ends. A nil *tracer records nothing, so untraced runs pay one nil
// check per call.

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's first span clock
	End    int64  `json:"end_ns"`
	Run    string `json:"run"`
}

type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1, Run: t.run})
	return id
}

// finish closes span id.
func (t *tracer) finish(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count    int     `json:"count"`
	TotalS   float64 `json:"total_s"`
	SelfS    float64 `json:"self_s"`
	MedianMS float64 `json:"median_ms"`
	durMS    []float64
}

// spanStats aggregates spans by name. A span's self time is its
// duration minus the part of it its child spans cover.
func spanStats(spans []span) map[string]*spanStat {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*spanStat{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		d := float64(s.End - s.Start)
		st.Count++
		st.TotalS += d / 1e9
		st.SelfS += (d - float64(covered(s, children[s.ID]))) / 1e9
		st.durMS = append(st.durMS, d/1e6)
	}
	for _, st := range out {
		st.MedianMS = median(st.durMS)
	}
	return out
}

// covered returns how much of parent's interval the children cover
// (overlapping children count once).
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// CPU profile folding. The profile is read with a minimal decoder of
// the pprof protobuf format (gzip-compressed profile.proto), and each
// sample is charged to the innermost coherencesim/internal/<module>
// frame on its stack.

const internalPrefix = "coherencesim/internal/"

// moduleOf names the module a stack (innermost frame first) is charged
// to: the innermost internal module, else "perfbench" for the
// benchmark's own code, else "other" (runtime, net/http, ...).
func moduleOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "perfbench"
		}
	}
	return "other"
}

// stack is one profile sample: frames innermost first, CPU nanoseconds.
type stack struct {
	frames []string
	cpuNS  int64
}

// foldStacks sums CPU seconds per module.
func foldStacks(stacks []stack) map[string]float64 {
	out := map[string]float64{}
	for _, s := range stacks {
		out[moduleOf(s.frames)] += float64(s.cpuNS) / 1e9
	}
	return out
}

// readProfile decodes a CPU profile file into stacks.
func readProfile(path string) ([]stack, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return decodeProfile(data)
}

var errProto = errors.New("profile: malformed protobuf")

// pbFields walks one protobuf message, calling fn per field with its
// varint value (wire types 0, 1, 5) or its bytes (wire type 2).
func pbFields(b []byte, fn func(num int, v uint64, data []byte, wire int) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, v, data, wire); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// repeated appends a repeated scalar field, packed or not.
func repeated(dst []uint64, v uint64, data []byte, wire int) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

// decodeProfile decodes an uncompressed profile.proto message.
func decodeProfile(data []byte) ([]stack, error) {
	type sample struct{ locs, vals []uint64 }
	var (
		samples   []sample
		strs      []string
		valTypes  [][2]uint64 // (type, unit) string indexes
		locFuncs  = map[uint64][]uint64{}
		funcNames = map[uint64]uint64{}
	)
	err := pbFields(data, func(num int, v uint64, b []byte, wire int) error {
		switch num {
		case 1: // sample_type
			var vt [2]uint64
			err := pbFields(b, func(n int, v uint64, _ []byte, _ int) error {
				if n == 1 || n == 2 {
					vt[n-1] = v
				}
				return nil
			})
			valTypes = append(valTypes, vt)
			return err
		case 2: // sample
			var s sample
			err := pbFields(b, func(n int, v uint64, d []byte, w int) error {
				var err error
				switch n {
				case 1:
					s.locs, err = repeated(s.locs, v, d, w)
				case 2:
					s.vals, err = repeated(s.vals, v, d, w)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(n int, v uint64, d []byte, _ int) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return pbFields(d, func(n int, v uint64, _ []byte, _ int) error {
						if n == 1 {
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
			var id, name uint64
			err := pbFields(b, func(n int, v uint64, _ []byte, _ int) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	valIdx := len(valTypes) - 1
	for i, vt := range valTypes {
		if str(vt[1]) == "nanoseconds" {
			valIdx = i
		}
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if valIdx < 0 || valIdx >= len(s.vals) {
			continue
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				frames = append(frames, str(funcNames[fid]))
			}
		}
		out = append(out, stack{frames: frames, cpuNS: int64(s.vals[valIdx])})
	}
	return out, nil
}

// Per-layer metrics.

// layerMetric names one per-layer metric and its unit, in report order.
type layerMetric struct{ name, unit string }

// eventLoopModules are the modules the simulator's event loop runs in.
var eventLoopModules = []string{"sim", "machine", "proto", "mesh", "mem", "cache", "classify", "constructs", "workload", "apps"}

// profiledModules are the modules whose profile self time is reported.
var profiledModules = append(append([]string{}, eventLoopModules...),
	"metrics", "trace", "runner", "service", "store", "fleet", "experiments")

// perLayerMetrics lists every per-layer metric a traced run prints.
// Metrics that do not apply to a workload read 0 there (README.md).
func perLayerMetrics() []layerMetric {
	var out []layerMetric
	for _, m := range profiledModules {
		out = append(out, layerMetric{m + ".self_s", "s"})
	}
	return append(out,
		layerMetric{"sim.host_ns_per_event", "ns/event"},
		layerMetric{"sim.events", "events"},
		layerMetric{"sim.cycles", "cycles"},
		layerMetric{"runner.busy_s", "s"},
		layerMetric{"runner.idle_s", "s"},
		layerMetric{"service.submit_ms", "ms"},
		layerMetric{"service.canonical_us", "us"},
		layerMetric{"service.cache_hits", "count"},
		layerMetric{"service.store_hits", "count"},
		layerMetric{"service.simulated_jobs", "count"},
		layerMetric{"store.open_s", "s"},
		layerMetric{"store.puts", "count"},
		layerMetric{"store.bytes", "bytes"},
		layerMetric{"fleet.dispatched", "count"},
		layerMetric{"fleet.batches", "count"},
		layerMetric{"fleet.stolen", "count"},
		layerMetric{"fleet.dup_completes", "count"},
		layerMetric{"fleet.register_s", "s"},
		layerMetric{"fleet.overhead_s", "s"},
		layerMetric{"runtime.gc_cpu_s", "s"},
		layerMetric{"other.self_s", "s"},
		layerMetric{"perfbench.self_s", "s"},
		layerMetric{"traced.overhead", "ratio"},
	)
}

// spanDerived maps per-layer metrics read from span medians to the span
// name and the scale from seconds.
var spanDerived = map[string]struct {
	span  string
	scale float64
}{
	"service.submit_ms":    {"service.submit", 1e3},
	"service.canonical_us": {"service.CanonicalHash", 1e6},
	"store.open_s":         {"store.Open", 1},
	"fleet.register_s":     {"fleet.register", 1},
}

// perLayer folds the profile and spans into the per-layer metrics.
func (h *harness) perLayer(baseWall float64) (map[string]metric, error) {
	stacks, err := readProfile(h.profPath)
	if err != nil {
		return nil, err
	}
	self := foldStacks(stacks)
	stats := spanStats(h.tr.snapshot())
	vals := map[string]float64{}
	for k, v := range h.layer {
		vals[k] = v
	}
	for m, s := range self {
		vals[m+".self_s"] = s
	}
	var loop float64
	for _, m := range eventLoopModules {
		loop += self[m]
	}
	if ev := h.counts["sim.events"]; ev > 0 {
		vals["sim.host_ns_per_event"] = loop / float64(ev) * 1e9
	}
	vals["sim.events"] = float64(h.counts["sim.events"])
	vals["sim.cycles"] = float64(h.counts["sim.cycles"])
	vals["runtime.gc_cpu_s"] = h.gcCPU
	vals["traced.overhead"] = h.wall / baseWall
	for name, d := range spanDerived {
		if st := stats[d.span]; st != nil {
			vals[name] = st.MedianMS / 1e3 * d.scale
		}
	}
	out := map[string]metric{}
	for _, lm := range perLayerMetrics() {
		out[lm.name] = metric{vals[lm.name], lm.unit}
	}
	return out, nil
}

// writeTraceFiles writes the per-layer metrics (with a per-span-name
// summary) and the raw spans.
func writeTraceFiles(dir string, layers map[string]metric, tr *tracer) error {
	spans := tr.snapshot()
	doc := struct {
		Run     string               `json:"run"`
		Metrics map[string]metric    `json:"metrics"`
		Spans   map[string]*spanStat `json:"spans_by_name"`
	}{tr.run, layers, spanStats(spans)}
	for name, v := range map[string]any{"layers.json": doc, "spans.json": spans} {
		b, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
