package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestARIPerfect(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2}
	got, err := ARI(a, a)
	if err != nil || got != 1 {
		t.Fatalf("ARI(a,a)=%v,%v want 1", got, err)
	}
	// Label permutation invariance.
	b := []int{5, 5, 9, 9, 7, 7}
	got, err = ARI(a, b)
	if err != nil || math.Abs(got-1) > 1e-12 {
		t.Fatalf("ARI under permutation=%v want 1", got)
	}
}

func TestARIKnownValue(t *testing.T) {
	// Hand-computed example: a=[0,0,1,1], b=[0,1,1,1].
	// Contingency: n00=1, n01=1, n11=2. sumIJ=C(2,2)=1.
	// sumI = C(2,2)+C(2,2) = 2; sumJ = C(1,2)+C(3,2) = 3. total=C(4,2)=6.
	// expected = 2*3/6 = 1; max = 2.5; ARI = (1-1)/(2.5-1) = 0.
	a := []int{0, 0, 1, 1}
	b := []int{0, 1, 1, 1}
	got, err := ARI(a, b)
	if err != nil || math.Abs(got-0) > 1e-12 {
		t.Fatalf("ARI=%v want 0", got)
	}
}

func TestARISymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(100)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(5)
			b[i] = rng.Intn(4)
		}
		x, err1 := ARI(a, b)
		y, err2 := ARI(b, a)
		return err1 == nil && err2 == nil && math.Abs(x-y) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestARIRandomNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 20000
	a := make([]int, n)
	b := make([]int, n)
	for i := range a {
		a[i] = rng.Intn(8)
		b[i] = rng.Intn(8)
	}
	got, err := ARI(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got) > 0.01 {
		t.Fatalf("ARI of random partitions = %v, want ≈ 0", got)
	}
}

func TestARIBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(4)
			b[i] = rng.Intn(4)
		}
		v, err := ARI(a, b)
		return err == nil && v <= 1+1e-12 && v >= -1-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestARIErrors(t *testing.T) {
	if _, err := ARI([]int{1}, []int{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := ARI(nil, nil); err == nil {
		t.Fatal("empty labelings accepted")
	}
}

func TestMutualInformationIndependent(t *testing.T) {
	// Perfectly dependent: MI = H = log 2.
	a := []int{0, 0, 1, 1}
	mi, err := MutualInformation(a, a)
	if err != nil || math.Abs(mi-math.Log(2)) > 1e-12 {
		t.Fatalf("MI=%v want ln2", mi)
	}
	// Independent uniform: MI = 0.
	b := []int{0, 1, 0, 1}
	mi, err = MutualInformation(a, b)
	if err != nil || math.Abs(mi) > 1e-12 {
		t.Fatalf("MI=%v want 0", mi)
	}
}

func TestAMIPerfect(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2, 0, 1, 2}
	got, err := AMI(a, a)
	if err != nil || math.Abs(got-1) > 1e-9 {
		t.Fatalf("AMI(a,a)=%v want 1", got)
	}
}

func TestAMIRandomNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 3000
	a := make([]int, n)
	b := make([]int, n)
	for i := range a {
		a[i] = rng.Intn(5)
		b[i] = rng.Intn(5)
	}
	got, err := AMI(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got) > 0.02 {
		t.Fatalf("AMI of random partitions = %v, want ≈ 0", got)
	}
}

func TestAMISymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 200
	a := make([]int, n)
	b := make([]int, n)
	for i := range a {
		a[i] = rng.Intn(6)
		b[i] = rng.Intn(3)
	}
	x, err1 := AMI(a, b)
	y, err2 := AMI(b, a)
	if err1 != nil || err2 != nil || math.Abs(x-y) > 1e-9 {
		t.Fatalf("AMI asymmetric: %v vs %v", x, y)
	}
}

func TestAMIHigherForBetterClustering(t *testing.T) {
	truth := make([]int, 300)
	good := make([]int, 300)
	bad := make([]int, 300)
	rng := rand.New(rand.NewSource(11))
	for i := range truth {
		truth[i] = i % 3
		good[i] = truth[i]
		if rng.Float64() < 0.1 {
			good[i] = rng.Intn(3)
		}
		bad[i] = rng.Intn(3)
	}
	g, _ := AMI(truth, good)
	b, _ := AMI(truth, bad)
	if g <= b {
		t.Fatalf("AMI(good)=%v should exceed AMI(bad)=%v", g, b)
	}
}
