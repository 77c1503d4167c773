package server

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
)

// Registry is the Prometheus registry of the daemon and of a fleet
// coordinator fronting it, stdlib only. Series are declared once and
// rendered in declaration order in the text exposition format; a labelled
// counter's samples render sorted by label value, so scrapes are
// deterministic. One mutex guards every stored value, so the stored series
// of one scrape agree with each other; request rates are nowhere near the
// point where a sharded registry would matter.
type Registry struct {
	mu   sync.Mutex
	fams []*family
}

// family is one metric family: its exposition header plus exactly one
// source of samples.
type family struct {
	mu                     *sync.Mutex
	name, help, typ, label string

	vals map[string]uint64 // counter values by label value ("" when unlabelled)
	read func() []Sample   // scrape-time reader
	hist *histogram
}

// Sample is one value a scrape-time reader reports. Label is the label
// value, empty in an unlabelled family.
type Sample struct {
	Label string
	Value int64
}

func (r *Registry) declare(f *family) *family {
	f.mu = &r.mu
	r.mu.Lock()
	r.fams = append(r.fams, f)
	r.mu.Unlock()
	return f
}

// Counter declares an unlabelled counter.
func (r *Registry) Counter(name, help string) Counter {
	return Counter{r.declare(&family{name: name, help: help, typ: "counter", vals: map[string]uint64{"": 0}})}
}

// LabeledCounter declares a counter split by one label. Only label values
// seen so far render, so a fresh one prints its HELP and TYPE lines alone.
func (r *Registry) LabeledCounter(name, help, label string) LabeledCounter {
	return LabeledCounter{r.declare(&family{name: name, help: help, typ: "counter", label: label, vals: map[string]uint64{}})}
}

// Func declares an unlabelled gauge or counter (typ) read at scrape time.
func (r *Registry) Func(typ, name, help string, read func() int64) {
	r.LabeledFunc(typ, name, help, "", func() []Sample { return []Sample{{Value: read()}} })
}

// LabeledFunc declares a gauge or counter (typ) split by one label and read
// at scrape time; its samples render in the order read returns them. read
// runs outside the registry lock, so it may take locks of its own.
func (r *Registry) LabeledFunc(typ, name, help, label string, read func() []Sample) {
	r.declare(&family{name: name, help: help, typ: typ, label: label, read: read})
}

// Histogram declares a histogram over fixed bucket upper bounds (ascending).
func (r *Registry) Histogram(name, help string, bounds []float64) Histogram {
	h := &histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	return Histogram{r.declare(&family{name: name, help: help, typ: "histogram", label: "le", hist: h})}
}

// Counter is a handle on an unlabelled counter.
type Counter struct{ f *family }

// Inc adds one.
func (c Counter) Inc() { c.Add(1) }

// Add adds n.
func (c Counter) Add(n uint64) { c.f.add("", n) }

// Value reads the count.
func (c Counter) Value() uint64 {
	c.f.mu.Lock()
	defer c.f.mu.Unlock()
	return c.f.vals[""]
}

// LabeledCounter is a handle on a counter split by one label.
type LabeledCounter struct{ f *family }

// Inc adds one to the sample with label value v.
func (c LabeledCounter) Inc(v string) { c.f.add(v, 1) }

func (f *family) add(label string, n uint64) {
	f.mu.Lock()
	f.vals[label] += n
	f.mu.Unlock()
}

// Histogram is a handle on a fixed-bucket histogram.
type Histogram struct{ f *family }

// Observe records one value.
func (h Histogram) Observe(v float64) {
	h.f.mu.Lock()
	h.f.hist.observe(v)
	h.f.mu.Unlock()
}

// histogram holds non-cumulative bucket counts; the renderer accumulates.
type histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1, +Inf last
	sum    float64
	count  uint64
}

func (h *histogram) observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
	h.sum += v
	h.count++
}

// ServeHTTP renders the registry: GET /metrics. Scrape-time readers run
// first, outside the lock; the text is then built under the lock and
// written after it is released.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	r.mu.Lock()
	fams := r.fams
	r.mu.Unlock()
	read := make([][]Sample, len(fams))
	for i, f := range fams {
		if f.read != nil {
			read[i] = f.read()
		}
	}

	var b bytes.Buffer
	r.mu.Lock()
	for i, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		switch {
		case f.hist != nil:
			var cum uint64
			for j, bound := range f.hist.bounds {
				cum += f.hist.counts[j]
				writeSample(&b, f.name+"_bucket", f.label, strconv.FormatFloat(bound, 'g', -1, 64), cum)
			}
			writeSample(&b, f.name+"_bucket", f.label, "+Inf", cum+f.hist.counts[len(f.hist.bounds)])
			fmt.Fprintf(&b, "%s_sum %s\n%s_count %d\n", f.name, strconv.FormatFloat(f.hist.sum, 'g', -1, 64), f.name, f.hist.count)
		case f.read != nil:
			for _, s := range read[i] {
				writeSample(&b, f.name, f.label, s.Label, s.Value)
			}
		default:
			keys := make([]string, 0, len(f.vals))
			for k := range f.vals {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				writeSample(&b, f.name, f.label, k, f.vals[k])
			}
		}
	}
	r.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(b.Bytes())
}

// writeSample prints one sample line: label="lv" when the family has a
// label name, the bare series name when it does not.
func writeSample[V int64 | uint64](b *bytes.Buffer, name, label, lv string, v V) {
	if label == "" {
		fmt.Fprintf(b, "%s %d\n", name, v)
	} else {
		fmt.Fprintf(b, "%s{%s=%q} %d\n", name, label, lv, v)
	}
}
