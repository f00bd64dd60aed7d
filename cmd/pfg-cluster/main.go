// Command pfg-cluster hierarchically clusters time series from a CSV file
// (one series per row, equal lengths) and prints one cluster label per row.
//
// Usage:
//
//	pfg-cluster -k 8 [-method tmfg-dbht|pmfg-dbht|complete|average]
//	            [-prefix 10] [-labeled] [-ari] [-newick tree.nwk] data.csv
//
// With -labeled, the final column of each row is a ground-truth class label
// (ignored for clustering); adding -ari prints the Adjusted Rand Index
// against it instead of the labels. -newick writes the full dendrogram in
// Newick format to the given file. -json prints the result as one JSON
// document — the same stable ResultJSON wire form pfg-serve responds with
// (Newick tree, canonical filtered-graph edges, labels at the -k cut) —
// instead of label lines.
//
// Follow mode flips the orientation for streaming: every CSV row is one tick
// (one observation per series, n columns), rows arrive in time order, and
// the tool re-clusters a rolling window as they do:
//
//	pfg-cluster -follow -window 256 -k 8 [-every 16] [-rebuild 256]
//	            [-log-slow-tick 50ms] ticks.csv
//
// ("-" reads ticks from stdin.) Once the window holds at least two samples,
// every -every ticks it prints one line "tick <t>: <labels...>", and a final
// snapshot at EOF. The rolling correlation state updates in O(n²) per tick
// instead of recomputing the O(n²·T) batch correlation; -rebuild is the
// drift-rebuild period K (exact recompute every K window slides).
// -log-slow-tick logs a per-stage breakdown to stderr (admit/roll/rebuild
// for pushes, finish/cluster for snapshots) whenever a tick or snapshot
// exceeds the threshold.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"pfg"
	"pfg/internal/dataio"
)

func main() {
	k := flag.Int("k", 0, "number of clusters to cut the dendrogram into (required)")
	method := flag.String("method", "tmfg-dbht", "clustering method: tmfg-dbht, pmfg-dbht, complete, average")
	prefix := flag.Int("prefix", 10, "TMFG construction prefix (1 = exact sequential TMFG)")
	labeled := flag.Bool("labeled", false, "treat the last column of each row as a class label")
	ari := flag.Bool("ari", false, "with -labeled: print the ARI against the labels instead of cluster ids")
	newick := flag.String("newick", "", "write the dendrogram in Newick format to this file")
	jsonOut := flag.Bool("json", false, "print the result as JSON (the pfg-serve ResultJSON wire form) instead of label lines")
	follow := flag.Bool("follow", false, "streaming mode: rows are ticks (one observation per series); re-cluster a rolling window")
	window := flag.Int("window", 256, "with -follow: rolling window length in ticks")
	every := flag.Int("every", 16, "with -follow: print a snapshot every this many ticks")
	rebuild := flag.Int("rebuild", 0, "with -follow: exact drift-rebuild period K in window slides (0 = default)")
	logSlowTick := flag.Duration("log-slow-tick", 0, "with -follow: log a per-stage breakdown for pushes or snapshots slower than this (0 = off)")
	flag.Parse()
	if *k < 1 || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pfg-cluster -k K [flags] data.csv")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *ari && !*labeled {
		fatal(fmt.Errorf("-ari requires -labeled"))
	}
	if *jsonOut && *ari {
		fatal(fmt.Errorf("-json and -ari are mutually exclusive"))
	}
	var m pfg.Method
	switch *method {
	case "tmfg-dbht":
		m = pfg.TMFGDBHT
	case "pmfg-dbht":
		m = pfg.PMFGDBHT
	case "complete":
		m = pfg.CompleteLinkage
	case "average":
		m = pfg.AverageLinkage
	default:
		fatal(fmt.Errorf("unknown method %q", *method))
	}
	opts := pfg.Options{Method: m, Prefix: *prefix}
	if *follow {
		if *labeled || *ari || *newick != "" || *jsonOut {
			fatal(fmt.Errorf("-follow does not support -labeled/-ari/-newick/-json"))
		}
		fmt.Fprintf(os.Stderr, "pfg-cluster: compute kernels %s\n", pfg.KernelISA())
		if err := runFollow(flag.Arg(0), *k, *window, *every, *rebuild, *logSlowTick, opts); err != nil {
			fatal(err)
		}
		return
	}
	series, truth, err := dataio.ReadSeriesFile(flag.Arg(0), *labeled)
	if err != nil {
		fatal(err)
	}
	res, err := pfg.Cluster(series, opts)
	if err != nil {
		fatal(err)
	}
	labels, err := res.Cut(*k)
	if err != nil {
		fatal(err)
	}
	if *newick != "" {
		tree, err := res.Newick(nil)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*newick, []byte(tree+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	if *ari {
		v, err := pfg.ARI(truth, labels)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ARI %.4f\n", v)
		return
	}
	if *jsonOut {
		view, err := res.JSON([]int{*k}, nil)
		if err != nil {
			fatal(err)
		}
		b, err := json.Marshal(view)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
		return
	}
	for _, l := range labels {
		fmt.Println(l)
	}
}

// runFollow drives the streaming engine over a tick-oriented CSV: each row
// is one sample across all series, pushed in file order.
func runFollow(path string, k, window, every, rebuild int, slow time.Duration, opts pfg.Options) error {
	if every < 1 {
		return fmt.Errorf("-every must be ≥ 1, got %d", every)
	}
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	st, err := pfg.NewStreamer(window, pfg.StreamOptions{Cluster: opts, RebuildEvery: rebuild})
	if err != nil {
		return err
	}
	defer st.Close()
	// With -log-slow-tick, install bare stages (no registry, no histograms):
	// each records only its last duration, which the breakdown lines below
	// read back. Without the flag the streamer stays fully uninstrumented
	// and never touches the clock.
	var met *pfg.StreamerMetrics
	if slow > 0 {
		met = pfg.NewStreamerMetrics()
		st.SetMetrics(met)
	}
	snapshotAt := func(tick int) error {
		var t0 time.Time
		if met != nil {
			t0 = time.Now()
		}
		res, err := st.Snapshot(context.Background())
		if err != nil {
			return fmt.Errorf("tick %d: %w", tick, err)
		}
		if met != nil {
			if el := time.Since(t0); el >= slow {
				fmt.Fprintf(os.Stderr, "pfg-cluster: slow snapshot tick=%d total=%s finish=%s cluster=%s\n",
					tick, el, met.SnapshotFinish.Last(), met.SnapshotCluster.Last())
			}
		}
		labels, err := res.Cut(k)
		if err != nil {
			return fmt.Errorf("tick %d: %w", tick, err)
		}
		parts := make([]string, len(labels))
		for i, l := range labels {
			parts[i] = fmt.Sprint(l)
		}
		fmt.Printf("tick %d: %s\n", tick, strings.Join(parts, " "))
		return nil
	}
	// Parse and push one row at a time so snapshots appear while a live
	// feed is still open (and memory stays bounded by the window).
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	var x []float64
	tick, printed := 0, -1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if x == nil {
			// csv.Reader pins FieldsPerRecord to the first row's width, so
			// later rows are guaranteed the same arity.
			x = make([]float64, len(rec))
		}
		for i, cell := range rec {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return fmt.Errorf("tick %d col %d: %w", tick+1, i+1, err)
			}
			x[i] = v
		}
		var t0 time.Time
		if met != nil {
			t0 = time.Now()
		}
		if err := st.Push(x); err != nil {
			return fmt.Errorf("tick %d: %w", tick+1, err)
		}
		tick++
		if met != nil {
			if el := time.Since(t0); el >= slow {
				fmt.Fprintf(os.Stderr, "pfg-cluster: slow tick=%d total=%s admit=%s roll=%s rebuild=%s\n",
					tick, el, met.PushAdmit.Last(), met.PushRoll.Last(), met.Rebuild.Last())
			}
		}
		if st.Len() >= 2 && tick%every == 0 {
			if err := snapshotAt(tick); err != nil {
				return err
			}
			printed = tick
		}
	}
	if st.Len() < 2 {
		return fmt.Errorf("input held %d ticks; need at least 2 for a snapshot", tick)
	}
	if printed != tick { // final snapshot at EOF
		return snapshotAt(tick)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pfg-cluster:", err)
	os.Exit(1)
}
