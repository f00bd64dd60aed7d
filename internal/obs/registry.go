package obs

import (
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind is the exposition type of a metric family.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one labeled member of a family: exactly one of the instrument
// fields is set. gf is a read-at-scrape callback for a gauge whose value
// lives elsewhere (a table length, a channel's fill, a clock).
type series struct {
	labels string // rendered `k="v",…` body, "" for unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
	gf     func() float64
}

// family is one metric name: its help text, kind, and labeled series.
type family struct {
	help   string
	kind   Kind
	series map[string]*series // keyed by rendered label body
}

// Registry is a named collection of instruments rendered by
// WritePrometheus. Creation methods are idempotent — asking for an existing
// (name, labels) pair returns the same instrument — and panic on a kind
// mismatch, which is an init-time programming error. All methods are safe
// for concurrent use.
type Registry struct {
	mu  sync.Mutex
	fam map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fam: make(map[string]*family)}
}

// get returns the series for (name, labels), creating family and series as
// needed. Caller must not hold mu.
func (r *Registry) get(name, help string, kind Kind, kv []string) *series {
	if !validName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	labels := renderLabels(kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam[name]
	if f == nil {
		f = &family{help: help, kind: kind, series: make(map[string]*series)}
		r.fam[name] = f
	} else if f.kind != kind {
		panic("obs: metric " + name + " redefined as " + kind.String() + " (was " + f.kind.String() + ")")
	}
	s := f.series[labels]
	if s == nil {
		s = &series{labels: labels}
		f.series[labels] = s
	}
	return s
}

// Counter returns the counter named name with the given label pairs
// (key, value, key, value, …), creating it on first use.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	s := r.get(name, help, KindCounter, kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge returns the gauge named name with the given label pairs, creating
// it on first use.
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	s := r.get(name, help, KindGauge, kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.g == nil && s.gf == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// Histogram returns the histogram named name with the given label pairs,
// creating it on first use.
func (r *Registry) Histogram(name, help string, kv ...string) *Histogram {
	s := r.get(name, help, KindHistogram, kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.h == nil {
		s.h = &Histogram{}
	}
	return s.h
}

// GaugeFunc registers a gauge whose float value is read from fn at scrape
// time. Replaces any previous func on the same series.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, kv ...string) {
	s := r.get(name, help, KindGauge, kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.gf = fn
	s.g = nil
}

// Remove drops the (name, labels) series — how per-session gauges leave the
// exposition when their session is deleted. An empty family disappears with
// its last series. No-op when absent.
func (r *Registry) Remove(name string, kv ...string) {
	labels := renderLabels(kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fam[name]
	if f == nil {
		return
	}
	delete(f.series, labels)
	if len(f.series) == 0 {
		delete(r.fam, name)
	}
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (text/plain; version 0.0.4): families sorted by name, series
// sorted by label body, histograms as cumulative _bucket series with
// le="+Inf" equal to _count, plus _sum.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Snapshot the structure under the lock, read values outside it so a
	// slow writer or a value callback taking another lock never blocks
	// registration.
	type serRef struct {
		labels string
		s      *series
	}
	type famRef struct {
		name string
		help string
		kind Kind
		ser  []serRef
	}
	r.mu.Lock()
	fams := make([]famRef, 0, len(r.fam))
	for name, f := range r.fam {
		fr := famRef{name: name, help: f.help, kind: f.kind, ser: make([]serRef, 0, len(f.series))}
		for labels, s := range f.series {
			fr.ser = append(fr.ser, serRef{labels: labels, s: s})
		}
		fams = append(fams, fr)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		sort.Slice(f.ser, func(i, j int) bool { return f.ser[i].labels < f.ser[j].labels })
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteString("\n# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.kind.String())
		b.WriteByte('\n')
		for _, sr := range f.ser {
			switch f.kind {
			case KindCounter:
				writeSample(&b, f.name, sr.labels, "", strconv.FormatUint(sr.s.c.Load(), 10))
			case KindGauge:
				if sr.s.gf != nil {
					writeSample(&b, f.name, sr.labels, "", formatFloat(sr.s.gf()))
				} else {
					writeSample(&b, f.name, sr.labels, "", strconv.FormatInt(sr.s.g.Load(), 10))
				}
			case KindHistogram:
				hs := sr.s.h.Snapshot()
				var cum uint64
				for i := 0; i < NumBuckets; i++ {
					cum += hs.Counts[i]
					le := "+Inf"
					if i < NumBuckets-1 {
						le = strconv.FormatUint(uint64(1)<<uint(i), 10)
					}
					writeSample(&b, f.name+"_bucket", sr.labels, `le="`+le+`"`, strconv.FormatUint(cum, 10))
				}
				writeSample(&b, f.name+"_sum", sr.labels, "", strconv.FormatUint(hs.Sum, 10))
				writeSample(&b, f.name+"_count", sr.labels, "", strconv.FormatUint(hs.Total, 10))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSample appends one exposition line; extra is an additional rendered
// label ( le="…" ) merged after the series labels.
func writeSample(b *strings.Builder, name, labels, extra, value string) {
	b.WriteString(name)
	if labels != "" || extra != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if labels != "" && extra != "" {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// formatFloat renders a float in the shortest exact form the exposition
// format accepts.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// renderLabels turns (key, value, …) pairs into the canonical label body
// `k1="v1",k2="v2"` with values escaped. Panics on an odd pair count or an
// invalid label name (init-time programming errors).
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: odd label key/value count")
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if !validName(kv[i]) {
			panic("obs: invalid label name " + strconv.Quote(kv[i]))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

// validName reports whether s matches the Prometheus metric/label name
// charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes help text: backslash and newline (quotes are legal in
// help).
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(v)
}

// Summary is the compact p50/p95/p99 digest of one histogram, the form
// /statsz and /driftz embed.
type Summary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Summarize digests a histogram (zero Summary for nil or empty).
func Summarize(h *Histogram) Summary {
	hs := h.Snapshot()
	if hs.Total == 0 {
		return Summary{}
	}
	return Summary{
		Count: hs.Total,
		Mean:  hs.Mean(),
		P50:   hs.Quantile(0.50),
		P95:   hs.Quantile(0.95),
		P99:   hs.Quantile(0.99),
	}
}
