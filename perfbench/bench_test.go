package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks the
// program against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestSmoke runs every workload at a tiny shape, untraced and traced, and
// checks that each run passes its output checks and prints every metric
// BENCHMARK.json names, with its unit, both in the table and on the last
// line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds pfg-serve and runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, l := range []struct {
		kind string
		json []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}
		prog []struct{ name, unit string }
	}{{"end-to-end", spec.EndToEnd, endToEnd}, {"per-layer", spec.PerLayer, perLayer}} {
		if len(l.json) != len(l.prog) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the program %d", len(l.json), l.kind, len(l.prog))
		}
		for i, m := range l.json {
			if m.Name != l.prog[i].name || m.Unit != l.prog[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					l.kind, i, m.Name, m.Unit, l.prog[i].name, l.prog[i].unit)
			}
		}
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "perfbench")
	server := filepath.Join(dir, "pfg-serve")
	for _, args := range [][]string{
		{"build", "-o", bin, "."},
		{"build", "-C", "..", "-o", server, "./cmd/pfg-serve"},
	} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}

	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				cmd := exec.Command(bin, "-root", "..", "-server", server, "-out", dir, "-small",
					"--workload", w.Name, "--seed", "3", "--seconds", "2", "--trace", trace)
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\n%s", err, out)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res runResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line: %v\n%s", err, out)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out)
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("last line has %d metrics, want %d", len(res.Metrics), len(want))
				}
				table := strings.Join(lines[:len(lines)-1], "\n")
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v on the last line, want unit %s", m.Name, got, m.Unit)
					}
					if !strings.Contains(table, " "+m.Name+" ") {
						t.Errorf("metric %s missing from the printed table", m.Name)
					}
				}
				for _, m := range spec.EndToEnd {
					if !strings.Contains(table, " "+m.Name+" ") {
						t.Errorf("end-to-end metric %s missing from the printed table", m.Name)
					}
				}
				if !strings.Contains(table, "failed_ratio") || !strings.Contains(table, "record: ") {
					t.Errorf("table lacks failed_ratio or the run record:\n%s", table)
				}
			})
		}
	}
}

// TestSameSeedSameInputs checks that a seed fixes the generated series and
// the pre-marshaled push bodies byte for byte.
func TestSameSeedSameInputs(t *testing.T) {
	spec := sseSpec(true)
	a, err := makeServeInput(spec, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeServeInput(spec, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := makeServeInput(spec, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	join := func(in *serveInput) string {
		var sb strings.Builder
		for _, p := range append(append([][]byte{}, in.fill...), in.pushes...) {
			sb.Write(p)
		}
		return sb.String()
	}
	if join(a) != join(b) {
		t.Error("the same seed gave different push bodies")
	}
	if join(a) == join(c) {
		t.Error("different seeds gave the same push bodies")
	}
	x := batchInput(&runConfig{seed: 5, small: true})
	y := batchInput(&runConfig{seed: 5, small: true})
	for i := range x.Series {
		for j := range x.Series[i] {
			if x.Series[i][j] != y.Series[i][j] {
				t.Fatalf("the same seed gave different batch series at (%d,%d)", i, j)
			}
		}
	}
}

func TestQuantileAndSelfTime(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	// Harrell–Davis is symmetric: the median of a symmetric sample is its
	// centre.
	if got := quantile(xs, 0.5); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if lo, hi := quantile(xs, 0.1), quantile(xs, 0.9); lo < 1 || hi > 4 || math.Abs(lo+hi-5) > 1e-9 {
		t.Errorf("p10, p90 = %v, %v: want symmetric about 2.5 inside [1, 4]", lo, hi)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	tr := newTracer()
	at := func(ms int64) int64 { return ms * 1e6 }
	tr.spans = []span{
		{ID: 1, Name: "root", Start: at(0), End: at(10)},
		{ID: 2, Parent: 1, Name: "a", Start: at(1), End: at(4)},
		{ID: 3, Parent: 1, Name: "b", Start: at(3), End: at(6)},
		{ID: 4, Parent: 2, Name: "grandchild", Start: at(1), End: at(2)},
	}
	// Children cover [1,6) once, overlaps counted once: 10 − 5 = 5 ms.
	if got := ms(tr.selfTime(1)); got != 5 {
		t.Errorf("self time = %v ms, want 5", got)
	}
}
