package serve

// The coalescing guarantee: any number of concurrent snapshot readers of
// one session at one generation share exactly one clustering run and
// receive byte-identical response bodies. Run under -race in CI.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
)

// fireSnapshots launches clients concurrent GETs against the same snapshot
// URL, released by one barrier, and returns the bodies plus the observed
// X-Pfg-Cache header counts.
func fireSnapshots(t *testing.T, h *testServer, url string, clients int) (bodies [][]byte, byStatus map[string]int) {
	t.Helper()
	bodies = make([][]byte, clients)
	headers := make([]string, clients)
	barrier := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-barrier
			req, err := http.NewRequest("GET", url, nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := h.ts.Client().Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d, body %s", i, resp.StatusCode, b)
				return
			}
			bodies[i] = b
			headers[i] = resp.Header.Get("X-Pfg-Cache")
		}(i)
	}
	close(barrier)
	wg.Wait()
	byStatus = make(map[string]int)
	for _, s := range headers {
		byStatus[s]++
	}
	return bodies, byStatus
}

func TestSnapshotCoalescing(t *testing.T) {
	const (
		n       = 64
		window  = 48
		clients = 32
	)
	h := newTestServer(t, Options{MaxInflight: 2})
	createSession(h, "feed", window, "complete-linkage")
	stream := ticks(t, n, window+1, 9)
	h.mustJSON("POST", "/v1/sessions/feed/push", PushRequest{Samples: stream[:window]}, http.StatusOK, nil)

	url := h.ts.URL + "/v1/sessions/feed/snapshot?k=4"
	bodies, byStatus := fireSnapshots(t, h, url, clients)

	// Exactly one clustering run for the whole stampede, no rejections —
	// followers coalesced onto the leader's run or hit the cache it filled.
	if runs := h.srv.ins.snapshotRuns.Load(); runs != 1 {
		t.Fatalf("%d clustering runs for %d concurrent clients, want 1 (statuses %v)", runs, clients, byStatus)
	}
	if rej := h.srv.ins.snapshotRejected.Load(); rej != 0 {
		t.Fatalf("%d clients rejected; same-generation readers must never saturate", rej)
	}
	if got := byStatus[""]; got != 0 {
		t.Fatalf("%d clients without a cache status: %v", got, byStatus)
	}
	if byStatus["miss"] != 1 {
		t.Fatalf("cache statuses %v, want exactly 1 miss", byStatus)
	}
	if hits := h.srv.ins.snapshotHits.Load() + h.srv.ins.snapshotCoalesced.Load(); hits != clients-1 {
		t.Fatalf("hits+coalesced = %d, want %d", hits, clients-1)
	}

	// All clients read bit-identical JSON.
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d body differs:\n%s\n%s", i, bodies[i], bodies[0])
		}
	}
	var snap SnapshotResponse
	if err := json.Unmarshal(bodies[0], &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Generation != window || snap.Result.N != n || len(snap.Result.Cuts["4"]) != n {
		t.Fatalf("bad coalesced snapshot: gen=%d n=%d cuts=%v", snap.Generation, snap.Result.N, snap.Result.Cuts)
	}

	// The /statsz surface exposes the same counters the assertion used.
	var stats StatsSnapshot
	h.mustJSON("GET", "/statsz", nil, http.StatusOK, &stats)
	if stats.SnapshotRuns != 1 || stats.SnapshotHits+stats.SnapshotCoalesced != clients-1 {
		t.Fatalf("statsz disagrees: %+v", stats)
	}

	// A generation bump starts the cycle over: one more run, not one per
	// client.
	h.mustJSON("POST", "/v1/sessions/feed/push", PushRequest{Sample: stream[window]}, http.StatusOK, nil)
	bodies2, _ := fireSnapshots(t, h, url, clients)
	if runs := h.srv.ins.snapshotRuns.Load(); runs != 2 {
		t.Fatalf("%d clustering runs after a push, want 2", runs)
	}
	var snap2 SnapshotResponse
	if err := json.Unmarshal(bodies2[0], &snap2); err != nil {
		t.Fatal(err)
	}
	if snap2.Generation != window+1 {
		t.Fatalf("post-push snapshot generation %d, want %d", snap2.Generation, window+1)
	}
	if bytes.Equal(bodies2[0], bodies[0]) {
		t.Fatal("post-push snapshot body identical to the pre-push body (stale cache)")
	}
}
