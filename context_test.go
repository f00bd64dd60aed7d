package pfg

import (
	"context"
	"reflect"
	"testing"
	"time"

	"pfg/internal/tsgen"
)

var allMethods = []Method{TMFGDBHT, PMFGDBHT, CompleteLinkage, AverageLinkage}

// TestClusterContextCancelledBeforeStart: a context cancelled before the
// call must yield ctx.Err() for every method, with and without a per-call
// worker budget, and must not run the pipeline.
func TestClusterContextCancelledBeforeStart(t *testing.T) {
	ds := tsgen.GenerateClassed("api", 40, 64, 2, 0.3, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range allMethods {
		for _, workers := range []int{0, 1, 2} {
			res, err := ClusterContext(ctx, ds.Series, Options{Method: m, Workers: workers})
			if err != context.Canceled {
				t.Fatalf("%v workers=%d: err=%v want context.Canceled", m, workers, err)
			}
			if res != nil {
				t.Fatalf("%v workers=%d: non-nil result on cancellation", m, workers)
			}
		}
	}
	sim, err := Pearson(ds.Series)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range allMethods {
		if _, err := ClusterMatrixContext(ctx, sim, nil, Options{Method: m}); err != context.Canceled {
			t.Fatalf("ClusterMatrixContext %v: err=%v want context.Canceled", m, err)
		}
	}
}

// TestClusterContextDeadlineExceeded: an already-expired deadline surfaces
// as context.DeadlineExceeded.
func TestClusterContextDeadlineExceeded(t *testing.T) {
	ds := tsgen.GenerateClassed("api", 40, 64, 2, 0.3, 6)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := ClusterContext(ctx, ds.Series, Options{}); err != context.DeadlineExceeded {
		t.Fatalf("err=%v want context.DeadlineExceeded", err)
	}
}

// TestClusterContextCancelMidRun cancels a slow PMFG run shortly after it
// starts. The quadratic planarity-test loop checks the context per
// candidate edge, so the call must return context.Canceled promptly rather
// than grinding to completion (which takes orders of magnitude longer) or
// deadlocking.
func TestClusterContextCancelMidRun(t *testing.T) {
	ds := tsgen.GenerateClassed("api", 130, 64, 4, 0.3, 7)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := ClusterContext(ctx, ds.Series, Options{Method: PMFGDBHT})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("err=%v want context.Canceled (after %v)", err, time.Since(start))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ClusterContext did not return after cancellation: deadlock or missing checks")
	}
}

// TestClusterContextCancelMidRunTMFG does the same for the paper's main
// pipeline, whose cancellation points are the exec.Pool chunk boundaries and
// the TMFG round loop.
func TestClusterContextCancelMidRunTMFG(t *testing.T) {
	ds := tsgen.GenerateClassed("api", 1200, 64, 8, 0.3, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := ClusterContext(ctx, ds.Series, Options{Method: TMFGDBHT, Prefix: 10})
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("err=%v want context.Canceled", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("ClusterContext did not return after cancellation")
	}
}

// TestWorkersOneDeterministic: with a single-worker budget the whole
// pipeline runs sequentially, so repeated runs must produce identical
// dendrograms (same merges, same heights, bit for bit).
func TestWorkersOneDeterministic(t *testing.T) {
	ds := tsgen.GenerateClassed("api", 100, 64, 4, 0.3, 11)
	for _, m := range []Method{TMFGDBHT, CompleteLinkage} {
		var first *Result
		for run := 0; run < 3; run++ {
			res, err := ClusterContext(context.Background(), ds.Series, Options{Method: m, Workers: 1})
			if err != nil {
				t.Fatalf("%v run %d: %v", m, run, err)
			}
			if first == nil {
				first = res
				continue
			}
			if !reflect.DeepEqual(first.Dendrogram.Merges, res.Dendrogram.Merges) {
				t.Fatalf("%v: run %d dendrogram differs from run 0", m, run)
			}
			if first.EdgeWeightSum != res.EdgeWeightSum || first.Groups != res.Groups {
				t.Fatalf("%v: run %d scalar outputs differ", m, run)
			}
		}
	}
}

// TestWorkersBudgetMatchesDefault: an explicit budget must not change the
// result relative to the shared default pool (the construction is
// deterministic for a fixed input regardless of worker count).
func TestWorkersBudgetMatchesDefault(t *testing.T) {
	ds := tsgen.GenerateClassed("api", 80, 64, 4, 0.3, 12)
	base, err := Cluster(ds.Series, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3} {
		res, err := ClusterContext(context.Background(), ds.Series, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(base.Dendrogram.Merges, res.Dendrogram.Merges) {
			t.Fatalf("workers=%d: dendrogram differs from default-pool run", workers)
		}
	}
}
