package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// span is one timed interval around a call the benchmark makes. Spans of
// one request share req (the push's acknowledged generation, or the call's
// index); parent is the enclosing span's id, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	// Start and End are nanoseconds since the run started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its id.
func (t *tracer) add(name string, parent int, req uint64, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// selfTime is a span's duration minus the part of its interval that its
// children cover.
func (t *tracer) selfTime(id int) time.Duration {
	p := t.spans[id-1]
	var iv [][2]int64
	for _, s := range t.spans {
		if s.Parent == id {
			iv = append(iv, [2]int64{max(s.Start, p.Start), min(s.End, p.End)})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	covered, end := int64(0), p.Start
	for _, x := range iv {
		lo := max(x[0], end)
		if x[1] > lo {
			covered += x[1] - lo
			end = x[1]
		}
	}
	return p.dur() - time.Duration(covered)
}

// durations lists the durations of every span with the given name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// sumByReq lists, per request, the summed duration in ms of the spans
// with the given names, in order of first appearance.
func (t *tracer) sumByReq(names ...string) []float64 {
	idx := map[uint64]int{}
	var out []float64
	for _, s := range t.spans {
		if !slices.Contains(names, s.Name) {
			continue
		}
		i, ok := idx[s.Req]
		if !ok {
			i = len(out)
			idx[s.Req] = i
			out = append(out, 0)
		}
		out[i] += ms(s.dur())
	}
	return out
}

// selfTimes lists the self times of every span with the given name, in ms.
func (t *tracer) selfTimes(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(t.selfTime(s.ID)))
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
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

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile is the Harrell–Davis estimate of the q-quantile of xs: an
// average of every order statistic, weighted by the Beta((n+1)q,
// (n+1)(1−q)) mass of its rank interval. A tail percentile then rests on
// the ranks around it rather than on one or two samples, which steadies it
// from run to run. q ≥ 1 is the maximum; an empty sample reads 0.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if q >= 1 || n == 1 {
		return s[n-1]
	}
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	var sum float64
	prev := 0.0
	for i := 1; i <= n; i++ {
		cdf := betaInc(a, b, float64(i)/float64(n))
		sum += (cdf - prev) * s[i-1]
		prev = cdf
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction evaluated with the modified Lentz method.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaFrac(a, b, x) / a
	}
	return 1 - front*betaFrac(b, a, 1-x)/b
}

func betaFrac(a, b, x float64) float64 {
	const tiny, eps = 1e-300, 1e-14
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1.0; m < 100000; m++ {
		for _, aa := range [2]float64{
			m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m)),
			-(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1)),
		} {
			d = 1 + aa*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + aa/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			h *= d * c
		}
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// procCPU is the user plus system CPU time a process has used so far, from
// /proc/<pid>/stat (clock ticks of 10 ms).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the line.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	const clockTick = 10 * time.Millisecond // USER_HZ = 100 on Linux
	return time.Duration(ut+st) * clockTick, nil
}

// selfCPU is this process's user plus system CPU time, at microsecond
// resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is a process's VmHWM in MB (10^6 bytes); pid 0 means this
// process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}
