package pfg

// Golden regression corpus: small deterministic fixtures whose Workers:1
// outputs (flat Cut(k) labels and the full Newick serialization, which
// embeds every merge and height) are pinned under testdata/golden/. The
// corpus is what makes refactors of the three-layer hot path (algorithms →
// flat memory → kernels) safe: any change that moves an output bit shows up
// as a golden diff instead of silently shifting results.
//
// Regenerate intentionally with:
//
//	go test -run TestGolden -update .
//
// The fixtures are synthesized in-process from committed tsgen seeds, so
// only the outputs live on disk. Heights and weights are float-formatted
// from exact bits; the files assume Go's strict (non-fused) amd64 float
// semantics, matching CI.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pfg/internal/tsgen"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/golden/ instead of comparing")

// goldenCase is one pinned pipeline configuration.
type goldenCase struct {
	Method Method
	N      int
	K      int // flat clusters to cut
}

// goldenFixture is the committed expectation for one case.
type goldenFixture struct {
	Method        string `json:"method"`
	N             int    `json:"n"`
	K             int    `json:"k"`
	Labels        []int  `json:"labels"`
	Newick        string `json:"newick"`
	EdgeWeightSum string `json:"edge_weight_sum"` // %x bit-exact float format
	Groups        int    `json:"groups"`
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, n := range []int{8, 16, 32} {
		for _, m := range []Method{TMFGDBHT, PMFGDBHT, CompleteLinkage, AverageLinkage} {
			k := 2
			if n >= 16 {
				k = 3
			}
			cases = append(cases, goldenCase{Method: m, N: n, K: k})
		}
	}
	return cases
}

// goldenSeries synthesizes the fixture input for size n: deterministic tsgen
// seeds, 48-sample series, 3 classes (2 for n=8).
func goldenSeries(n int) [][]float64 {
	classes := 3
	if n < 12 {
		classes = 2
	}
	return tsgen.GenerateClassed("golden", n, 48, classes, 0.45, int64(100+n)).Series
}

func goldenPath(c goldenCase) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s_n%d.json", c.Method, c.N))
}

func runGoldenCase(t *testing.T, c goldenCase) goldenFixture {
	t.Helper()
	// Workers:1 — the deterministic sequential pipeline the corpus pins.
	opts := Options{Method: c.Method, Prefix: 2, Workers: 1}
	series := goldenSeries(c.N)
	res, err := Cluster(series, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenFixtureOf(t, c, res)
	// The public matrix path must reproduce the same fixture.
	sim, err := Pearson(series)
	if err != nil {
		t.Fatal(err)
	}
	dis, err := Dissimilarity(sim)
	if err != nil {
		t.Fatal(err)
	}
	res, err = ClusterMatrix(sim, dis, opts)
	if err != nil {
		t.Fatal(err)
	}
	if viaMatrix := goldenFixtureOf(t, c, res); !reflect.DeepEqual(viaMatrix, got) {
		t.Fatalf("ClusterMatrix(Pearson, Dissimilarity) differs from Cluster:\nmatrix  %+v\ncluster %+v", viaMatrix, got)
	}
	return got
}

func goldenFixtureOf(t *testing.T, c goldenCase, res *Result) goldenFixture {
	t.Helper()
	labels, err := res.Cut(c.K)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := res.Newick(nil)
	if err != nil {
		t.Fatal(err)
	}
	return goldenFixture{
		Method:        c.Method.String(),
		N:             c.N,
		K:             c.K,
		Labels:        labels,
		Newick:        nw,
		EdgeWeightSum: fmt.Sprintf("%x", res.EdgeWeightSum),
		Groups:        res.Groups,
	}
}

func TestGolden(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(fmt.Sprintf("%s/n=%d", c.Method, c.N), func(t *testing.T) {
			got := runGoldenCase(t, c)
			path := goldenPath(c)
			if *updateGolden {
				blob, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run `go test -run TestGolden -update .`): %v", err)
			}
			var want goldenFixture
			if err := json.Unmarshal(blob, &want); err != nil {
				t.Fatalf("corrupt golden file %s: %v", path, err)
			}
			if len(got.Labels) != len(want.Labels) {
				t.Fatalf("labels: %d got vs %d golden", len(got.Labels), len(want.Labels))
			}
			for i := range got.Labels {
				if got.Labels[i] != want.Labels[i] {
					t.Fatalf("label[%d] = %d, golden %d", i, got.Labels[i], want.Labels[i])
				}
			}
			if got.Newick != want.Newick {
				t.Fatalf("newick drifted from golden:\ngot    %s\ngolden %s", got.Newick, want.Newick)
			}
			if got.EdgeWeightSum != want.EdgeWeightSum {
				t.Fatalf("edge weight sum %s, golden %s", got.EdgeWeightSum, want.EdgeWeightSum)
			}
			if got.Groups != want.Groups {
				t.Fatalf("groups %d, golden %d", got.Groups, want.Groups)
			}
		})
	}
}

// TestGoldenStreaming replays each golden fixture through the streaming
// engine (pushing the series tick by tick with a forced mid-stream drift
// rebuild) and requires the snapshot to reproduce the committed golden
// output — wiring the streaming layer into the same regression net as the
// batch pipeline.
func TestGoldenStreaming(t *testing.T) {
	if *updateGolden {
		t.Skip("golden files regenerate from the batch pipeline")
	}
	for _, c := range goldenCases() {
		t.Run(fmt.Sprintf("%s/n=%d", c.Method, c.N), func(t *testing.T) {
			series := goldenSeries(c.N)
			ticksTotal := len(series[0])
			window := ticksTotal * 3 / 4 // force sliding over the fixture
			st, err := NewStreamer(window, StreamOptions{
				Cluster:      Options{Method: c.Method, Prefix: 2, Workers: 1},
				RebuildEvery: -1, // drift freely; rely on the forced rebuild
			})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			x := make([]float64, c.N)
			for k := 0; k < ticksTotal; k++ {
				for i := range x {
					x[i] = series[i][k]
				}
				if err := st.Push(x); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Rebuild(); err != nil {
				t.Fatal(err)
			}
			snap, err := st.Snapshot(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			// Batch reference over the same (slid) window, then both must
			// agree with each other bit-for-bit; the batch side is already
			// anchored by TestGolden.
			tail := make([][]float64, c.N)
			for i := range tail {
				tail[i] = series[i][ticksTotal-window:]
			}
			batch, err := Cluster(tail, Options{Method: c.Method, Prefix: 2, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "golden-stream", snap, batch, c.K)
		})
	}
}
