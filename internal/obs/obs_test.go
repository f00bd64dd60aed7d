package obs

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketOf pins the bucket classification: bucket i holds (2^(i−1), 2^i]
// with bucket 0 = [0, 1] and the last bucket the +Inf catch-all.
func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 0},
		{2, 1},
		{3, 2}, {4, 2},
		{5, 3}, {8, 3},
		{9, 4}, {16, 4},
		{1 << 20, 20}, {1<<20 + 1, 21},
		{1 << (NumBuckets - 2), NumBuckets - 2}, // last finite boundary, inclusive
		{1<<(NumBuckets-2) + 1, NumBuckets - 1}, // first value past it → +Inf
		{math.MaxUint64, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Exhaustive boundary sweep: for every finite bucket, its bound lands in
	// it and bound+1 lands in the next.
	for i := 0; i < NumBuckets-1; i++ {
		bound := uint64(1) << uint(i)
		if got := bucketOf(bound); got != i {
			t.Errorf("bucketOf(2^%d) = %d, want %d", i, got, i)
		}
		next := i + 1
		if next > NumBuckets-1 {
			next = NumBuckets - 1
		}
		if got := bucketOf(bound + 1); got != next {
			t.Errorf("bucketOf(2^%d+1) = %d, want %d", i, got, next)
		}
	}
}

// TestHistogramQuantileOracle checks bucket-derived quantiles against an
// exact sort oracle: for each q the estimate must land in the same
// power-of-two bucket as the true order statistic — the precision the
// histogram promises.
func TestHistogramQuantileOracle(t *testing.T) {
	// Deterministic pseudo-random values spanning many buckets (LCG; no
	// global rand dependency).
	var h Histogram
	seed := uint64(0x9e3779b97f4a7c15)
	vals := make([]uint64, 0, 5000)
	for i := 0; i < 5000; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		v := seed >> (20 + seed%30) // values across ~30 octaves
		vals = append(vals, v)
		h.Observe(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	s := h.Snapshot()
	if s.Total != uint64(len(vals)) {
		t.Fatalf("Total = %d, want %d", s.Total, len(vals))
	}
	var wantSum uint64
	for _, v := range vals {
		wantSum += v
	}
	if s.Sum != wantSum {
		t.Fatalf("Sum = %d, want %d", s.Sum, wantSum)
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		rank := int(math.Ceil(q * float64(len(vals))))
		if rank == 0 {
			rank = 1
		}
		exact := vals[rank-1]
		est := s.Quantile(q)
		b := bucketOf(exact)
		lo := 0.0
		if b > 0 {
			lo = BucketBound(b - 1)
		}
		hi := BucketBound(b)
		if est < lo || est > hi {
			t.Errorf("q=%g: estimate %g outside exact value %d's bucket [%g, %g]",
				q, est, exact, lo, hi)
		}
	}
	// Empty histogram: all quantiles are 0.
	var empty Histogram
	if got := empty.Snapshot().Quantile(0.99); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
}

// TestRegistryExposition checks the rendered Prometheus text format:
// HELP/TYPE lines, sorted families, cumulative monotone buckets,
// le="+Inf" == _count, and label escaping.
func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_ticks_total", "ticks seen").Add(7)
	r.Gauge("test_depth", "queue depth", "queue", `a"b\c`).Set(-3)
	r.GaugeFunc("test_ratio", "a ratio", func() float64 { return 0.25 })
	h := r.Histogram("test_ns", "latencies", "stage", "roll")
	for _, v := range []uint64{1, 2, 3, 100, 5000, 1 << 45} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# HELP test_ticks_total ticks seen\n# TYPE test_ticks_total counter\ntest_ticks_total 7\n",
		"# TYPE test_depth gauge\ntest_depth{queue=\"a\\\"b\\\\c\"} -3\n",
		"test_ratio 0.25\n",
		"# TYPE test_ns histogram\n",
		`test_ns_bucket{stage="roll",le="1"} 1` + "\n",
		`test_ns_bucket{stage="roll",le="+Inf"} 6` + "\n",
		`test_ns_count{stage="roll"} 6` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}

	// Families must appear in sorted order, buckets cumulative monotone.
	var lastFam string
	var lastBucket int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			fam := strings.SplitN(line[len("# HELP "):], " ", 2)[0]
			if fam <= lastFam {
				t.Errorf("family %q out of order after %q", fam, lastFam)
			}
			lastFam = fam
		}
		if strings.HasPrefix(line, "test_ns_bucket{") {
			v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			if v < lastBucket {
				t.Errorf("bucket counts not monotone: %d after %d in %q", v, lastBucket, line)
			}
			lastBucket = v
		}
	}

	// Remove drops the series and, when last, the family.
	r.Remove("test_ns", "stage", "roll")
	sb.Reset()
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "test_ns") {
		t.Error("removed family still rendered")
	}

	// Idempotent creation returns the same instrument.
	if r.Counter("test_ticks_total", "ticks seen") != r.Counter("test_ticks_total", "other help") {
		t.Error("Counter not idempotent")
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines — new
// series creation, observations, scrapes, removals — under -race.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("conc_total", "c")
			h := r.Histogram("conc_ns", "h", "w", strconv.Itoa(g%4))
			ga := r.Gauge("conc_depth", "g")
			st := NewStage(h)
			var sw Stopwatch
			for i := 0; i < 2000; i++ {
				c.Inc()
				h.Observe(uint64(i))
				ga.Set(int64(i - 1000))
				sw.Start()
				sw.Lap(st)
				if i%500 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Error(err)
					}
					_ = h.Snapshot().Quantile(0.95)
					r.Gauge("conc_session", "s", "session", strconv.Itoa(i))
					r.Remove("conc_session", "session", strconv.Itoa(i))
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("conc_total", "c").Load(); got != 8*2000 {
		t.Errorf("counter = %d, want %d", got, 8*2000)
	}
}

// TestNilNoAlloc pins the "free when unobserved" contract: every operation
// on nil instruments allocates nothing.
func TestNilNoAlloc(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var st *Stage
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(3)
		c.Inc()
		_ = c.Load()
		g.Set(7)
		g.Add(-1)
		_ = g.Load()
		h.Observe(123)
		h.ObserveDuration(time.Millisecond)
		_ = h.Count()
		st.Observe(time.Microsecond)
		_ = st.Last()
		_ = st.Hist()
	}); n != 0 {
		t.Fatalf("nil-instrument operations allocated %.1f allocs/op, want 0", n)
	}
	// Live instruments must not allocate per observation either.
	reg := NewRegistry()
	lc := reg.Counter("y_total", "y")
	lh := reg.Histogram("y_ns", "y")
	ls := NewStage(lh)
	var sw Stopwatch
	if n := testing.AllocsPerRun(1000, func() {
		lc.Inc()
		lh.Observe(4096)
		sw.Start()
		sw.Lap(ls)
	}); n != 0 {
		t.Fatalf("live observations allocated %.1f allocs/op, want 0", n)
	}
}

// TestStageLast checks the slow-tick readback path: Last returns the most
// recent observation even without a backing histogram.
func TestStageLast(t *testing.T) {
	s := NewStage(nil)
	s.Observe(5 * time.Millisecond)
	if got := s.Last(); got != 5*time.Millisecond {
		t.Fatalf("Last = %v, want 5ms", got)
	}
	s.Observe(time.Second)
	if got := s.Last(); got != time.Second {
		t.Fatalf("Last = %v, want 1s", got)
	}
	if s.Hist() != nil {
		t.Fatal("bare stage reports a histogram")
	}
	var nilStage *Stage
	if nilStage.Last() != 0 {
		t.Fatal("nil stage Last != 0")
	}
}

// TestSummarize checks the p50/p95/p99 digest on a known distribution.
func TestSummarize(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(100) // bucket (64,128]
	}
	h.Observe(1 << 30) // one outlier
	s := Summarize(&h)
	if s.Count != 101 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.P50 < 64 || s.P50 > 128 {
		t.Errorf("P50 = %g, want within (64,128]", s.P50)
	}
	if s.P99 < 64 || s.P99 > 128 {
		t.Errorf("P99 = %g, want within (64,128] (outlier is past rank 100)", s.P99)
	}
	if got := Summarize(nil); got != (Summary{}) {
		t.Errorf("Summarize(nil) = %+v, want zero", got)
	}
}
