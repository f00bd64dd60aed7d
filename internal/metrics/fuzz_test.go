package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// TestMetricsRobustness checks all metrics stay finite and in range on
// arbitrary labelings, including degenerate ones.
func TestMetricsRobustness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := [][2][]int{
		{{0}, {0}},
		{{0, 0, 0}, {1, 1, 1}},
		{{0, 1, 2}, {0, 0, 0}},
		{{0, 1, 2}, {2, 1, 0}},
	}
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(60)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(1 + rng.Intn(10))
			b[i] = rng.Intn(1 + rng.Intn(10))
		}
		cases = append(cases, [2][]int{a, b})
	}
	for _, c := range cases {
		a, b := c[0], c[1]
		for name, f := range map[string]func([]int, []int) (float64, error){
			"ARI": ARI, "AMI": AMI, "MI": MutualInformation,
		} {
			v, err := f(a, b)
			if err != nil {
				t.Fatalf("%s(%v,%v): %v", name, a, b, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s(%v,%v) = %v", name, a, b, v)
			}
			// MI is in nats (bounded by log of the cluster count), all
			// other metrics are normalized to at most 1.
			if name != "MI" && v > 1+1e-9 {
				t.Fatalf("%s(%v,%v) = %v > 1", name, a, b, v)
			}
		}
	}
}
