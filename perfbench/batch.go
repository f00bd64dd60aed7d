package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"time"

	"pfg"
	"pfg/internal/dbht"
	pexec "pfg/internal/exec"
	"pfg/internal/matrix"
	"pfg/internal/tmfg"
	"pfg/internal/tsgen"
	"pfg/internal/ws"
)

// batchShape is the batch-tmfg input: Mallat from the tsgen catalog.
func batchShape(small bool) (n, length int) {
	if small {
		return 64, 128
	}
	return 1000, 1024
}

const (
	batchCut    = 8
	batchPrefix = 10
	// coldRuns is how many fresh processes time a cold first call and read
	// their peak RSS; setup_s and peak_rss_mb are the medians.
	coldRuns = 5
	// ariInputs is how many generated inputs the ari figure averages over;
	// the extra ones use seeds ariSeedStride apart.
	ariInputs     = 5
	ariSeedStride = 1_000_003
)

func batchInput(c *runConfig) *tsgen.Dataset {
	n, l := batchShape(c.small)
	return tsgen.Generate(tsgen.Catalog()[0], n, l, c.seed)
}

// coldCallMain is the child side of setup_s and peak_rss_mb: generate the
// input, then time this process's first ClusterContext call and report
// its peak RSS.
func coldCallMain(c *runConfig, stdout, stderr io.Writer) int {
	ds := batchInput(c)
	t0 := time.Now()
	if _, err := pfg.ClusterContext(context.Background(), ds.Series, pfg.Options{}); err != nil {
		fmt.Fprintln(stderr, "perfbench: cold call:", err)
		return 1
	}
	d := time.Since(t0)
	rss, err := peakRSSMB(0)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: cold call:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%d %g\n", d.Nanoseconds(), rss)
	return 0
}

// coldCall runs one cold first call in a fresh copy of this program and
// returns its duration and the process's peak RSS in MB.
func coldCall(c *runConfig) (time.Duration, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	args := []string{"-cold-call", "-workload", c.workload, "-seed", strconv.FormatInt(c.seed, 10)}
	if c.small {
		args = append(args, "-small")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, 0, fmt.Errorf("cold-call child: %w", err)
	}
	var ns int64
	var rss float64
	if _, err := fmt.Sscanf(string(out), "%d %g", &ns, &rss); err != nil {
		return 0, 0, fmt.Errorf("cold-call child printed %q: %v", out, err)
	}
	return time.Duration(ns), rss, nil
}

// batchARI is the mean ARI of Cut(8) against the generator's labels over
// the run's input (whose cut is given) and ariInputs−1 more Mallat inputs
// generated from the seed, so that one input's luck moves it less.
func batchARI(ctx context.Context, c *runConfig, cut, labels []int) (float64, error) {
	first, err := pfg.ARI(cut, labels)
	if err != nil {
		return 0, err
	}
	sum := first
	n, l := batchShape(c.small)
	for k := int64(1); k < ariInputs; k++ {
		ds := tsgen.Generate(tsgen.Catalog()[0], n, l, c.seed+k*ariSeedStride)
		res, err := pfg.ClusterContext(ctx, ds.Series, pfg.Options{})
		if err != nil {
			return 0, err
		}
		lab, err := res.Cut(batchCut)
		if err != nil {
			return 0, err
		}
		a, err := pfg.ARI(lab, ds.Labels)
		if err != nil {
			return 0, err
		}
		sum += a
	}
	return sum / ariInputs, nil
}

// batchRef is the Workers:1 reference every call must reproduce.
type batchRef struct {
	newick string
	labels []int
}

func (r *batchRef) check(res *pfg.Result) error {
	nwk, err := res.Newick(nil)
	if err != nil {
		return err
	}
	if nwk != r.newick {
		return fmt.Errorf("Newick differs from the Workers:1 reference")
	}
	lab, err := res.Cut(batchCut)
	if err != nil {
		return err
	}
	if !slices.Equal(lab, r.labels) {
		return fmt.Errorf("Cut(%d) labels differ from the Workers:1 reference", batchCut)
	}
	return nil
}

// runBatch is the batch-tmfg workload: a closed loop of ClusterContext
// calls on one input for the timed phase.
func runBatch(c *runConfig) (*report, error) {
	ctx := context.Background()
	n, l := batchShape(c.small)
	rep := &report{params: map[string]any{
		"dataset": "Mallat", "series": n, "length": l, "classes": 8, "method": "tmfg-dbht",
		"prefix": batchPrefix, "workers": 0, "cut": batchCut, "loop": "closed, one caller",
		"cold_runs": coldRuns, "ari_inputs": ariInputs,
	}, procs: map[string]int{"perfbench": runtime.GOMAXPROCS(0)}}
	ds := batchInput(c)

	// Set-up: cold first calls in fresh processes, then the Workers:1
	// reference and an untimed warm-up call in this one.
	var colds, coldRSS []float64
	for range coldRuns {
		d, rss, err := coldCall(c)
		if err != nil {
			return nil, err
		}
		colds = append(colds, d.Seconds())
		coldRSS = append(coldRSS, rss)
	}
	refRes, err := pfg.ClusterContext(ctx, ds.Series, pfg.Options{Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("Workers:1 reference: %w", err)
	}
	ref := &batchRef{}
	if ref.newick, err = refRes.Newick(nil); err != nil {
		return nil, err
	}
	if ref.labels, err = refRes.Cut(batchCut); err != nil {
		return nil, err
	}
	ari, err := batchARI(ctx, c, ref.labels, ds.Labels)
	if err != nil {
		return nil, err
	}
	body, err := refRes.JSON([]int{batchCut}, nil)
	if err != nil {
		return nil, err
	}
	wire, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	if warm, err := pfg.ClusterContext(ctx, ds.Series, pfg.Options{}); err != nil {
		return nil, err
	} else if err := ref.check(warm); err != nil {
		rep.fail("warm-up call: %v", err)
	}

	// Timed phase. The untraced run times every call; the traced run
	// alternates a plain ClusterContext call with the same pipeline
	// composed from its layers under spans, so the two can be compared call
	// for call.
	var (
		calls, traced []float64
		cpu           time.Duration
		allocBytes    uint64
		gcs           uint32
		tr            *tracer
		ms0, ms1      runtime.MemStats
	)
	if c.trace {
		tr = newTracer()
	}
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		rep.attempted++
		if tr != nil && i%2 == 1 {
			t0 := time.Now()
			res, err := tracedCall(ctx, tr, uint64(i), ds.Series)
			traced = append(traced, ms(time.Since(t0)))
			if err == nil {
				err = ref.check(res)
			}
			if err != nil {
				rep.failed++
				rep.fail("traced call %d: %v", i, err)
			}
			continue
		}
		if tr != nil {
			runtime.ReadMemStats(&ms0)
		}
		cpu0 := selfCPU()
		t0 := time.Now()
		res, err := pfg.ClusterContext(ctx, ds.Series, pfg.Options{})
		d := time.Since(t0)
		cpu += selfCPU() - cpu0
		if tr != nil {
			runtime.ReadMemStats(&ms1)
			allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
			gcs += ms1.NumGC - ms0.NumGC
		}
		calls = append(calls, ms(d))
		if err == nil {
			err = ref.check(res)
		}
		if err != nil {
			rep.failed++
			rep.fail("call %d: %v", i, err)
		}
	}

	// A batch call has no separate acknowledgement or delivery: its result
	// is visible to the caller when it returns, so the visible and ack
	// figures are the call's duration. Peak RSS comes from the cold
	// processes: a long-running caller's high-water mark depends on where
	// its collector last sized the heap and moved by up to 0.3 of the median
	// from run to run, while a fresh process clustering the input once
	// repeats.
	rep.addE2E("setup_s", median(colds), "s")
	rep.addE2E("visible_p50_ms", quantile(calls, 0.5), "ms")
	rep.addE2E("ack_p50_ms", quantile(calls, 0.5), "ms")
	rep.addE2E("cluster_p50_ms", quantile(calls, 0.5), "ms")
	rep.addE2E("cluster_p90_ms", quantile(calls, 0.9), "ms")
	rep.addE2E("cpu_ms_per_op", ms(cpu)/float64(max(len(calls), 1)), "ms")
	rep.addE2E("peak_rss_mb", median(coldRSS), "MB")
	rep.addE2E("bytes_per_update", float64(len(wire)), "bytes")
	rep.addE2E("ari", ari, "index")
	rep.params["timed_calls"] = len(calls)
	if tr == nil {
		return rep, nil
	}

	rep.spans = tr
	corr := median(tr.durations("matrix.correlate"))
	flop := float64(n) * float64(n+1) * float64(l)
	lm := newLayerMetrics()
	lm.set("matrix.correlate_ms", corr)
	if corr > 0 {
		lm.set("kernel.syrk_gflops", flop/(corr*1e6))
	}
	lm.set("tmfg.build_ms", median(tr.durations("tmfg.build")))
	lm.set("graph.apsp_ms", median(tr.durations("graph.apsp")))
	// dbht's bubble-tree stage is its direction plus assignment spans.
	lm.set("dbht.bubbletree_ms", median(tr.sumByReq("dbht.direction", "dbht.assign")))
	lm.set("dbht.hierarchy_ms", median(tr.durations("dbht.hierarchy")))
	lm.set("dbht.self_ms", median(tr.selfTimes("dbht.build")))
	untimed := float64(max(len(calls), 1))
	lm.set("pfg.alloc_mb_per_op", float64(allocBytes)/1e6/untimed)
	lm.set("pfg.gc_per_op", float64(gcs)/untimed)
	over := median(traced) - median(calls)
	lm.set("trace.overhead_ms", over)
	lm.set("trace.overhead_pct", 100*over/median(calls))
	lm.note("kernel.syrk_gflops", "computed as n(n+1)L flop / matrix.correlate_ms, not counted")
	lm.note("trace.overhead_ms", "median spanned layer composition minus median ClusterContext call, alternating")
	lm.emit(rep, "batch-tmfg does no streaming or serving")
	return rep, nil
}

// tracedCall is pfg.ClusterContext's TMFG-DBHT path composed from the layer
// calls core.TMFGDBHTWS makes, with a span around each. dbht's own stage
// timers become child spans of the dbht.build span, laid end to end from
// its start in the order dbht runs them.
func tracedCall(ctx context.Context, tr *tracer, req uint64, series [][]float64) (*pfg.Result, error) {
	pool := pexec.Default()
	w := ws.Get()
	defer ws.Put(w)
	start := time.Now()
	root := tr.add("pfg.cluster", 0, req, start, start)

	t0 := time.Now()
	sim, dis, err := matrix.PearsonDissimWS(ctx, pool, w, series)
	tr.add("matrix.correlate", root, req, t0, time.Now())
	if err != nil {
		return nil, err
	}
	defer sim.Release(w)
	defer dis.Release(w)

	t0 = time.Now()
	tm, err := tmfg.BuildWS(ctx, pool, w, sim, batchPrefix)
	tr.add("tmfg.build", root, req, t0, time.Now())
	if err != nil {
		return nil, err
	}
	defer tm.Graph.Release(w)

	t0 = time.Now()
	res, err := dbht.BuildWS(ctx, pool, w, tm.Graph, tm.Tree, dis, dbht.Options{})
	t1 := time.Now()
	id := tr.add("dbht.build", root, req, t0, t1)
	if err != nil {
		return nil, err
	}
	at := t0
	for _, st := range []struct {
		name string
		d    time.Duration
	}{
		{"dbht.direction", res.Timings.Direction},
		{"graph.apsp", res.Timings.APSP},
		{"dbht.assign", res.Timings.Assign},
		{"dbht.hierarchy", res.Timings.Hierarchy},
	} {
		tr.add(st.name, id, req, at, at.Add(st.d))
		at = at.Add(st.d)
	}
	tr.spans[root-1].End = int64(time.Since(tr.t0))
	return &pfg.Result{Dendrogram: res.Dendrogram, Edges: tm.Edges,
		EdgeWeightSum: tm.EdgeWeightSum(sim), Groups: len(res.Groups)}, nil
}
