// Package experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic workloads (see DESIGN.md §3 for the
// experiment index and §4 for the data substitutions). Each function returns
// a formatted text table; cmd/pfg-experiments exposes them as subcommands
// and EXPERIMENTS.md records representative output.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"pfg/internal/core"
	"pfg/internal/exec"
	"pfg/internal/matrix"
	"pfg/internal/tsgen"
	"pfg/internal/ws"
)

// Config scales the experiments to the host. The paper's full sizes (n up to
// 19412) exceed small containers because the HAC baselines and APSP need
// Θ(n²) memory, so the defaults cap object counts while preserving every
// qualitative comparison.
type Config struct {
	// MaxN caps objects per data set for quality/runtime sweeps.
	MaxN int
	// MaxLen caps series lengths.
	MaxLen int
	// PMFGMaxN caps data sets on which the (very slow) PMFG runs; larger
	// sets report "timeout", mirroring the paper's PMFG timeouts.
	PMFGMaxN int
	// ScaleN is the object count for the largest ("Crop"-like) scaling runs.
	ScaleN int
	// Seed drives all generators.
	Seed int64
	// Quick restricts sweeps to a subset of data sets and prefixes.
	Quick bool
}

// DefaultConfig returns sizes suited to a many-core container: every method
// finishes, PMFG included, within a few minutes total.
func DefaultConfig() Config {
	return Config{MaxN: 400, MaxLen: 192, PMFGMaxN: 400, ScaleN: 2000, Seed: 1}
}

// QuickConfig returns a fast smoke-test configuration.
func QuickConfig() Config {
	return Config{MaxN: 160, MaxLen: 96, PMFGMaxN: 120, ScaleN: 500, Seed: 1, Quick: true}
}

// Dataset couples a generated data set with its catalog entry.
type Dataset struct {
	Entry tsgen.CatalogEntry
	Data  *tsgen.Dataset
}

// Datasets materializes the catalog under the config's caps. In Quick mode
// only a representative subset is generated.
func Datasets(cfg Config) []Dataset {
	var out []Dataset
	for _, e := range tsgen.Catalog() {
		if cfg.Quick && e.ID != 1 && e.ID != 6 && e.ID != 11 && e.ID != 17 {
			continue
		}
		maxN := cfg.MaxN
		// Scale the catalog entries roughly proportionally: the paper's
		// largest sets stay the largest here.
		if e.N > 9000 {
			maxN = cfg.MaxN * 6 / 5
		}
		out = append(out, Dataset{
			Entry: e,
			Data:  tsgen.Generate(e, maxN, cfg.MaxLen, cfg.Seed+int64(e.ID)),
		})
	}
	return out
}

// Table2 renders the data set summary (Table II) with both the paper's
// original sizes and the generated sizes.
func Table2(cfg Config) string {
	var b strings.Builder
	tw := newTable(&b, "ID", "Name", "n(paper)", "n(here)", "L(paper)", "L(here)", "#classes")
	for _, d := range Datasets(cfg) {
		tw.row(
			fmt.Sprint(d.Entry.ID), d.Entry.Name,
			fmt.Sprint(d.Entry.N), fmt.Sprint(len(d.Data.Series)),
			fmt.Sprint(d.Entry.Length), fmt.Sprint(d.Data.Length),
			fmt.Sprint(d.Entry.Classes),
		)
	}
	tw.flush()
	return b.String()
}

// Each experiment holds one workspace for its whole run and runs without
// cancellation. Stages take exec.Default() at the call, so they follow the
// GOMAXPROCS that withThreads sets.

// correlate computes the similarity and dissimilarity matrices of series,
// with scratch from w.
func correlate(w *ws.Workspace, series [][]float64) (sim, dis *matrix.Sym) {
	sim, dis, err := matrix.PearsonDissimWS(context.Background(), exec.Default(), w, series)
	if err != nil {
		panic(err)
	}
	return sim, dis
}

func mustTMFGDBHT(w *ws.Workspace, sim, dis *matrix.Sym, prefix int) *core.Result {
	r, err := core.TMFGDBHTWS(context.Background(), exec.Default(), w, sim, dis, prefix)
	if err != nil {
		panic(err)
	}
	return r
}

// withThreads runs f with GOMAXPROCS set to p, restoring it afterwards.
func withThreads(p int, f func()) {
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	f()
}

// timeIt measures f's wall-clock time.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// threadCounts returns the sweep 1, 2, 4, ..., up to the machine size.
func threadCounts() []int {
	max := runtime.NumCPU()
	var out []int
	for p := 1; p < max; p *= 2 {
		out = append(out, p)
	}
	out = append(out, max)
	return out
}

// table is a minimal aligned-column text table writer.
type table struct {
	b       *strings.Builder
	headers []string
	rows    [][]string
}

func newTable(b *strings.Builder, headers ...string) *table {
	return &table{b: b, headers: headers}
}

func (t *table) row(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) flush() {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				t.b.WriteString("  ")
			}
			fmt.Fprintf(t.b, "%-*s", widths[i], c)
		}
		t.b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := len(widths)*2 - 2
	for _, w := range widths {
		total += w
	}
	t.b.WriteString(strings.Repeat("-", total))
	t.b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d <= 0:
		return "-"
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	case d < time.Second:
		return fmt.Sprintf("%.0fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// prefixSweep returns the paper's prefix sizes, truncated in Quick mode.
func prefixSweep(cfg Config) []int {
	if cfg.Quick {
		return []int{1, 10, 50}
	}
	return []int{1, 2, 5, 10, 30, 50, 200}
}

// sortedIDs returns dataset IDs ascending (helper for deterministic output).
func sortedIDs(ds []Dataset) []Dataset {
	out := append([]Dataset{}, ds...)
	sort.Slice(out, func(i, j int) bool { return out[i].Entry.ID < out[j].Entry.ID })
	return out
}
