// Command perfbench is the pipeline's benchmark: one command that runs a
// named workload against the tree it sits in, checks every output it
// receives, and prints every end-to-end metric by name with its unit.
//
// Usage (from the repository root; run.sh builds this program and
// cmd/pfg-serve first):
//
//	bash perfbench/run.sh --workload batch-tmfg --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// --workload all runs every workload in turn, each printing its own report
// and JSON line.
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
// run also records spans around the benchmark's own calls and diffs the
// server's /metricsz and /statsz across the timed phase, and the metrics are
// the per-layer ones. The lines before it are the run record (commit, CPU,
// GOMAXPROCS, kernel ISA, workload parameters) and a human-readable table.
//
// Inputs come from the repository's own tsgen generators and depend only on
// --seed. Seed heldOutSeed is reserved for checking a claimed gain on a seed
// that was not used while the change was written.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pfg"
)

// heldOutSeed is never used while tuning the benchmark or a change; a claim
// re-checked on it shows it was not fitted to the seeds it was developed on.
const heldOutSeed = 7919

// workload is one named traffic shape. why and layers are printed in every
// run record, so a result always carries the reason the workload exists.
type workload struct {
	name   string
	why    string
	layers string
	run    func(*runConfig) (*report, error)
}

var workloads = []workload{
	{
		name: "batch-tmfg",
		why: "the paper's own pipeline at a Table II shape (Mallat, 1000 series x 1024 samples, 8 classes): " +
			"in-process closed loop, one caller, pfg.ClusterContext with TMFG-DBHT, prefix 10, Workers 0",
		layers: "kernel and matrix (correlation, ~1/4 of a call), tmfg (~1/3), graph APSP (~1/3), bubbletree and dbht; " +
			"no stream, inc, serve or ckpt work, so a serving change should not move it",
		run: runBatch,
	},
	{
		name: "sse-incremental",
		why: "pfg-serve, one incremental tmfg-dbht session (window 2048, 256 stock series), one SSE subscriber, " +
			"open-loop single-tick pushes at 50/s: ~98% of generations are incremental hits",
		layers: "serve push decode, stream roll, the inc drift gate, encode, delta and SSE write at the median; " +
			"tmfg/dbht clustering only in the tail, through the staleness and rebuild-boundary fulls",
		run: runSSE,
	},
	{
		name: "poll-durable",
		why: "pfg-serve with -state-dir (fsync batch, checkpoint every 64), one exact tmfg-dbht session (window 1024, " +
			"256 stock series), open-loop pushes at 30/s, one If-Generation long-poll reader",
		layers: "a full correlation finish and TMFG-DBHT run per generation through the pull path (conditional GET, " +
			"long-poll watch, generation cache, full-body encode); WAL fsync per push and a checkpoint every 64th: " +
			"the only workload that writes to disk",
		run: runPoll,
	},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// small selects tiny shapes for the harness's own smoke test.
	small bool
	// root is the repository checkout, server the pfg-serve binary, out the
	// directory for traces and server state.
	root, server, out string
}

// report is what a workload measured.
type report struct {
	attempted, failed int
	// checks lists output-check failures (empty when every output matched).
	checks []string
	e2e    []metric
	layer  []metric
	params map[string]any
	// procs maps each process under test or driving the load to its
	// GOMAXPROCS.
	procs map[string]int
	// notes qualifies per-layer metrics: how a figure was derived, or why
	// it reads 0 (the workload has no such layer, or the run produced no
	// samples of it).
	notes map[string]string
	spans *tracer
}

type metric struct {
	name  string
	value float64
	unit  string
}

func (r *report) addE2E(name string, v float64, unit string) {
	r.e2e = append(r.e2e, metric{name, v, unit})
}

func (r *report) addLayer(name string, v float64, unit string) {
	r.layer = append(r.layer, metric{name, v, unit})
}

// fail records a failed output check; failed operations are counted by the
// workload itself.
func (r *report) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: batch-tmfg, sse-incremental, poll-durable, or all for each in turn")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 35, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 records spans and server metric diffs and prints the per-layer metrics")
	small := fs.Bool("small", false, "tiny shapes, for the benchmark's own smoke test")
	root := fs.String("root", ".", "repository checkout the benchmark runs against")
	server := fs.String("server", "", "pfg-serve binary (default <out>/pfg-serve)")
	out := fs.String("out", "", "directory for traces and server state (default <root>/.bench_build)")
	coldCall := fs.Bool("cold-call", false, "internal: time one cold batch-tmfg call in this fresh process and print it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	c := &runConfig{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		small: *small, root: *root, server: *server, out: *out}
	if c.out == "" {
		c.out = filepath.Join(c.root, ".bench_build")
	}
	if c.server == "" {
		c.server = filepath.Join(c.out, "pfg-serve")
	}
	if *coldCall {
		return coldCallMain(c, stdout, stderr)
	}
	var todo []*workload
	for i := range workloads {
		if c.workload == "all" || workloads[i].name == c.workload {
			todo = append(todo, &workloads[i])
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", c.workload)
		return 2
	}
	if c.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	for _, w := range todo {
		c.workload = w.name
		rep, err := w.run(c)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if c.trace && rep.spans != nil {
			path := filepath.Join(c.out, "trace", fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, c.seed))
			if err := rep.spans.write(path); err != nil {
				fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "spans: %d written to %s\n", len(rep.spans.spans), path)
		}
		printReport(stdout, c, w, rep)
	}
	return 0
}

// printReport writes the run record, the human-readable metric table, and
// the final JSON line.
func printReport(out io.Writer, c *runConfig, w *workload, rep *report) {
	commit, dirty := gitCommit(c.root)
	record := map[string]any{
		"workload":      w.name,
		"why":           w.why,
		"layers":        w.layers,
		"seed":          c.seed,
		"held_out_seed": heldOutSeed,
		"seconds":       c.seconds,
		"trace":         c.trace,
		"small":         c.small,
		"params":        rep.params,
		"commit":        commit,
		"dirty":         dirty,
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    rep.procs,
		"kernel_isa":    pfg.KernelISA(),
		"go_version":    runtime.Version(),
		"time":          time.Now().UTC().Format(time.RFC3339),
	}
	b, _ := json.Marshal(record)
	fmt.Fprintf(out, "record: %s\n", b)

	failedRatio := float64(rep.failed) / float64(max(rep.attempted, 1))
	fmt.Fprintf(out, "end-to-end (%s, seed %d):\n", w.name, c.seed)
	for _, m := range rep.e2e {
		note := ""
		if !gated(m.name) {
			note = "  (reported, not gated)"
		}
		fmt.Fprintf(out, "  %-24s %14.4f %s%s\n", m.name, m.value, m.unit, note)
	}
	fmt.Fprintf(out, "  %-24s %14.4f %s (%d of %d)\n", "failed_ratio", failedRatio, "fraction", rep.failed, rep.attempted)
	if c.trace {
		fmt.Fprintf(out, "per-layer:\n")
		for _, m := range rep.layer {
			note := ""
			if n, ok := rep.notes[m.name]; ok {
				note = "  (" + n + ")"
			}
			fmt.Fprintf(out, "  %-24s %14.4f %s%s\n", m.name, m.value, m.unit, note)
		}
	}
	for _, msg := range rep.checks {
		fmt.Fprintf(out, "check failed: %s\n", msg)
	}

	metrics := map[string]any{}
	list := rep.layer
	if !c.trace {
		list = nil
		for _, m := range rep.e2e {
			if gated(m.name) {
				list = append(list, m)
			}
		}
	}
	for _, m := range list {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	last, _ := json.Marshal(map[string]any{
		"correct":   len(rep.checks) == 0 && rep.failed == 0,
		"attempted": max(rep.attempted, 1),
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	fmt.Fprintf(out, "%s\n", last)
}

// gitCommit names the checkout's commit and whether its tracked files
// differ from it. A checkout that is not a git work tree reports
// "unknown"; the search for a repository never leaves the checkout.
func gitCommit(root string) (string, bool) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "unknown", false
	}
	env := append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
	cmd := exec.Command("git", "-C", abs, "rev-parse", "HEAD")
	cmd.Env = env
	head, err := cmd.Output()
	if err != nil {
		return "unknown", false
	}
	cmd = exec.Command("git", "-C", abs, "status", "--porcelain", "--untracked-files=no")
	cmd.Env = env
	st, err := cmd.Output()
	return strings.TrimSpace(string(head)), err != nil || len(st) > 0
}

// cpuModel is the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
