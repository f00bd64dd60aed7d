// Package metrics implements the external clustering quality measures used
// in the paper's evaluation: the Adjusted Rand Index (Hubert & Arabie) and
// Adjusted Mutual Information (Vinh, Epps & Bailey).
package metrics

import (
	"fmt"
	"math"
)

// contingency builds the contingency table between two labelings, returning
// the table, row sums, and column sums.
func contingency(a, b []int) (table map[[2]int]float64, rowSum, colSum map[int]float64, n float64, err error) {
	if len(a) != len(b) {
		return nil, nil, nil, 0, fmt.Errorf("metrics: labelings have lengths %d and %d", len(a), len(b))
	}
	if len(a) == 0 {
		return nil, nil, nil, 0, fmt.Errorf("metrics: empty labelings")
	}
	table = map[[2]int]float64{}
	rowSum = map[int]float64{}
	colSum = map[int]float64{}
	for i := range a {
		table[[2]int{a[i], b[i]}]++
		rowSum[a[i]]++
		colSum[b[i]]++
	}
	return table, rowSum, colSum, float64(len(a)), nil
}

func choose2(x float64) float64 { return x * (x - 1) / 2 }

// ARI computes the Adjusted Rand Index between two labelings of the same
// points. It is 1 for identical partitions, has expected value 0 for random
// partitions, and is symmetric.
func ARI(a, b []int) (float64, error) {
	table, rowSum, colSum, n, err := contingency(a, b)
	if err != nil {
		return 0, err
	}
	var sumIJ float64
	for _, v := range table {
		sumIJ += choose2(v)
	}
	var sumI, sumJ float64
	for _, v := range rowSum {
		sumI += choose2(v)
	}
	for _, v := range colSum {
		sumJ += choose2(v)
	}
	total := choose2(n)
	if total == 0 {
		return 1, nil // a single point: identical trivial partitions
	}
	expected := sumI * sumJ / total
	maxIdx := (sumI + sumJ) / 2
	if maxIdx == expected {
		// Degenerate cases (e.g. both partitions are single clusters, or
		// both all-singletons): define ARI as 1 when identical structure.
		return 1, nil
	}
	return (sumIJ - expected) / (maxIdx - expected), nil
}

// MutualInformation computes MI(a, b) in nats.
func MutualInformation(a, b []int) (float64, error) {
	table, rowSum, colSum, n, err := contingency(a, b)
	if err != nil {
		return 0, err
	}
	mi := 0.0
	for k, nij := range table {
		if nij == 0 {
			continue
		}
		mi += nij / n * math.Log(nij*n/(rowSum[k[0]]*colSum[k[1]]))
	}
	if mi < 0 {
		mi = 0 // rounding
	}
	return mi, nil
}

// entropy computes the Shannon entropy (nats) of a labeling's cluster sizes.
func entropy(sizes map[int]float64, n float64) float64 {
	h := 0.0
	for _, s := range sizes {
		if s > 0 {
			p := s / n
			h -= p * math.Log(p)
		}
	}
	return h
}

// expectedMutualInformation computes E[MI] under the permutation model
// (hypergeometric distribution of contingency cells), following Vinh et al.
func expectedMutualInformation(rowSum, colSum map[int]float64, n float64) float64 {
	emi := 0.0
	lgN, _ := math.Lgamma(n + 1)
	for _, ai := range rowSum {
		for _, bj := range colSum {
			lo := math.Max(1, ai+bj-n)
			hi := math.Min(ai, bj)
			for nij := lo; nij <= hi; nij++ {
				t1 := nij / n * math.Log(n*nij/(ai*bj))
				// Hypergeometric probability via log-gamma.
				la1, _ := math.Lgamma(ai + 1)
				la2, _ := math.Lgamma(bj + 1)
				la3, _ := math.Lgamma(n - ai + 1)
				la4, _ := math.Lgamma(n - bj + 1)
				lb1, _ := math.Lgamma(nij + 1)
				lb2, _ := math.Lgamma(ai - nij + 1)
				lb3, _ := math.Lgamma(bj - nij + 1)
				lb4, _ := math.Lgamma(n - ai - bj + nij + 1)
				logP := la1 + la2 + la3 + la4 - lgN - lb1 - lb2 - lb3 - lb4
				emi += t1 * math.Exp(logP)
			}
		}
	}
	return emi
}

// AMI computes the Adjusted Mutual Information with the max normalizer
// (scikit-learn's default): (MI − E[MI]) / (max(H(a), H(b)) − E[MI]).
func AMI(a, b []int) (float64, error) {
	_, rowSum, colSum, n, err := contingency(a, b)
	if err != nil {
		return 0, err
	}
	mi, err := MutualInformation(a, b)
	if err != nil {
		return 0, err
	}
	ha := entropy(rowSum, n)
	hb := entropy(colSum, n)
	if ha == 0 && hb == 0 {
		return 1, nil // both partitions trivial and identical in structure
	}
	emi := expectedMutualInformation(rowSum, colSum, n)
	denom := math.Max(ha, hb) - emi
	if denom == 0 {
		if mi == emi {
			return 1, nil
		}
		return 0, nil
	}
	return (mi - emi) / denom, nil
}
