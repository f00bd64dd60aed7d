package serve

// Tests of the per-generation record (cache.go): the publication rules, and
// a fuzzer that drives hostile snapshot queries through the real handler
// against a shadow streamer.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"pfg"
)

// sessionGauge returns the /metricsz sample of a per-session gauge.
func sessionGauge(h *testServer, name, id string) string {
	h.t.Helper()
	status, body := h.do("GET", "/metricsz", nil)
	if status != http.StatusOK {
		h.t.Fatalf("/metricsz: status %d", status)
	}
	prefix := name + `{session="` + id + `"} `
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			return v
		}
	}
	h.t.Fatalf("/metricsz has no %s for session %s", name, id)
	return ""
}

// TestPublishOutOfOrder pins the record rules of publish when runs complete
// out of order. A run for generation 10 that lands after generation 12 was
// published gets its own record, with no drift, and 12 stays current: on
// /driftz, on both per-session gauges and on session info. Publishing 12
// again returns the record already published, so a generation has one drift
// record and one body set. A hit of the current record's reference shares
// that reference.
func TestPublishOutOfOrder(t *testing.T) {
	const id = "ooo"
	h := newTestServer(t, Options{})
	// ε = 10 never trips and MaxStale −1 disables the staleness gate: the
	// first snapshot is exact and every later one is a hit of it.
	incrCreate(h, id, 8, "tmfg-dbht", &IncrementalRequest{DriftThreshold: 10, MaxStale: -1})
	sess, _ := h.srv.reg.Get(id)
	stream := ticks(t, 8, 13, 3)
	pushTicks(h, id, stream[:10])
	results := make(map[uint64]*pfg.Result)
	for g := uint64(10); g <= 13; g++ {
		if g > 10 {
			pushTicks(h, id, stream[g-1:g])
		}
		res, gen, err := sess.st.SnapshotGen(context.Background())
		if err != nil || gen != g {
			t.Fatalf("snapshot at generation %d: generation %d, err %v", g, gen, err)
		}
		results[g] = res
	}
	if results[10].TicksSinceExact != 0 || results[12].TicksSinceExact != 2 {
		t.Fatalf("want an exact reference at 10 and a hit at 12, got stale ticks %d and %d",
			results[10].TicksSinceExact, results[12].TicksSinceExact)
	}

	if rec := h.srv.publish(sess, results[11], 11); rec.drift != nil || sess.cache.current() != rec {
		t.Fatalf("first record: drift %+v, current %t", rec.drift, sess.cache.current() == rec)
	}
	rec12 := h.srv.publish(sess, results[12], 12)
	if rec12.drift == nil || rec12.drift.FromGeneration != 11 || rec12.drift.ARI != 1 {
		t.Fatalf("generation 12 drift %+v, want ARI 1 from generation 11", rec12.drift)
	}

	rec10 := h.srv.publish(sess, results[10], 10)
	if rec10 == rec12 || rec10.gen != 10 || rec10.res != results[10] || rec10.drift != nil {
		t.Fatalf("out-of-order record: gen %d, own result %t, drift %+v; want generation 10's result with no drift",
			rec10.gen, rec10.res == results[10], rec10.drift)
	}
	if cur := sess.cache.current(); cur != rec12 {
		t.Fatalf("current record is generation %d after an out-of-order publish, want 12", cur.gen)
	}
	var dz DriftzResponse
	h.mustJSON("GET", "/driftz", nil, http.StatusOK, &dz)
	if got := dz.Sessions[0]; got.Generation != 12 || got.Drift == nil || *got.Drift != *rec12.drift {
		t.Fatalf("/driftz reads generation %d drift %+v, want 12 and %+v", got.Generation, got.Drift, *rec12.drift)
	}
	if ari, churn := sessionGauge(h, "pfg_session_drift_ari", id), sessionGauge(h, "pfg_session_edge_churn", id); ari != "1" || churn != "0" {
		t.Fatalf("per-session gauges read ARI %s and churn %s, want generation 12's 1 and 0", ari, churn)
	}
	var info SessionInfo
	h.mustJSON("GET", "/v1/sessions/"+id, nil, http.StatusOK, &info)
	if info.StaleTicks != 2 || info.Drift != results[12].Drift {
		t.Fatalf("session info reads stale ticks %d drift %v, want generation 12's 2 and %v",
			info.StaleTicks, info.Drift, results[12].Drift)
	}

	if again := h.srv.publish(sess, results[12], 12); again != rec12 {
		t.Fatal("publishing the current generation again made a second record")
	}

	rec13 := h.srv.publish(sess, results[13], 13)
	if rec13.ref != rec12.ref || sess.cache.current() != rec13 {
		t.Fatalf("hit of the current reference: shares it %t, current %t", rec13.ref == rec12.ref, sess.cache.current() == rec13)
	}
	if rec13.drift == nil || rec13.drift.FromGeneration != 12 {
		t.Fatalf("generation 13 drift %+v, want one from generation 12", rec13.drift)
	}
}

// FuzzSnapshotQuery sends hostile snapshot queries through Server.Handler()
// to an incremental tmfg-dbht session at Workers 1, in lockstep with a
// shadow streamer of the same configuration. queries lists ?k= values
// separated by '|'; one that starts with '+' pushes a tick first. Every
// query carries ifGen as ?if_generation= when it is set. No response may be
// a 5xx; every 200 body must equal the shadow's clustering of the same
// generation through Result.JSON; no record or reference may hold more than
// maxCachedBodies entries; and a body build must leave its cut set's view on
// the record's reference.
func FuzzSnapshotQuery(f *testing.F) {
	const (
		id         = "fuzz"
		n          = 8
		window     = 12
		rebuild    = 10
		maxQueries = 64
	)
	inc := pfg.IncrementalOptions{Enabled: true, DriftThreshold: 0.4, MaxStale: 4}
	f.Add("4", "")
	f.Add("2,8|+3|+|+5,5,2|3", "")
	f.Add("+2|+2|+2|+2|+2|+2|+2|+2|+2|+2|+2|+2", "")
	f.Add("0|-1|abc|9|2,,3| 4|1,1,1", "x")
	f.Add("4|+4|4", "12")
	var many []string
	for a := 1; a <= n; a++ {
		for b := a + 1; b <= n; b++ {
			many = append(many, fmt.Sprintf("%d,%d", a, b))
		}
	}
	f.Add(strings.Join(many, "|"), "") // 28 pairs
	f.Add(strings.Join(append(many, "1", "2", "3", "4", "5", "6", "7", "8"), "|"), "")

	f.Fuzz(func(t *testing.T, queries, ifGen string) {
		srv := New(Options{})
		defer srv.Close()
		handler := srv.Handler()
		do := func(method, target string, body any) *httptest.ResponseRecorder {
			var rd io.Reader
			if body != nil {
				b, err := json.Marshal(body)
				if err != nil {
					t.Fatal(err)
				}
				rd = bytes.NewReader(b)
			}
			w := httptest.NewRecorder()
			handler.ServeHTTP(w, httptest.NewRequest(method, target, rd))
			return w
		}
		if w := do("POST", "/v1/sessions", CreateSessionRequest{
			ID: id, Window: window, Method: "tmfg-dbht", Workers: 1, RebuildEvery: rebuild,
			Incremental: &IncrementalRequest{DriftThreshold: inc.DriftThreshold, MaxStale: inc.MaxStale},
		}); w.Code != http.StatusCreated {
			t.Fatalf("create: status %d, body %s", w.Code, w.Body)
		}
		shadow, err := pfg.NewStreamer(window, pfg.StreamOptions{
			Cluster:      pfg.Options{Method: pfg.TMFGDBHT, Workers: 1},
			RebuildEvery: rebuild,
			Incremental:  inc,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer shadow.Close()
		stream := ticks(t, n, window+maxQueries, 17)
		pushed := 0
		push := func() {
			x := stream[pushed]
			pushed++
			if w := do("POST", "/v1/sessions/"+id+"/push", PushRequest{Sample: x}); w.Code != http.StatusOK {
				t.Fatalf("push: status %d, body %s", w.Code, w.Body)
			}
			if err := shadow.Push(x); err != nil {
				t.Fatal(err)
			}
		}
		for pushed < window {
			push()
		}
		sess, _ := srv.reg.Get(id)

		var want *pfg.Result // the shadow's clustering of wantGen
		var wantGen uint64
		parts := strings.Split(queries, "|")
		if len(parts) > maxQueries {
			parts = parts[:maxQueries]
		}
		for _, k := range parts {
			if rest, ok := strings.CutPrefix(k, "+"); ok {
				push()
				k = rest
			}
			target := "/v1/sessions/" + id + "/snapshot?k=" + url.QueryEscape(k)
			if ifGen != "" {
				target += "&if_generation=" + url.QueryEscape(ifGen)
			}
			runs, encodes := srv.ins.snapshotRuns.Load(), srv.ins.snapshotEncodes.Load()
			w := do("GET", target, nil)
			if w.Code >= 500 {
				t.Fatalf("GET %s: status %d, body %s", target, w.Code, w.Body)
			}
			if srv.ins.snapshotRuns.Load() != runs {
				// The server clustered this generation, so the shadow does
				// too: the incremental gates then decide alike on both.
				if want, wantGen, err = shadow.SnapshotGen(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			if w.Code == http.StatusOK {
				ks, err := parseCuts([]string{k})
				if err != nil || want == nil {
					t.Fatalf("GET %s: 200 with cut error %v, shadow clustered %t", target, err, want != nil)
				}
				ks = normalizeCuts(ks)
				view, err := want.JSON(ks, nil)
				if err != nil {
					t.Fatalf("GET %s: 200, but the shadow's view fails: %v", target, err)
				}
				b, err := json.Marshal(SnapshotResponse{Session: id, Method: "tmfg-dbht", Window: window, Generation: wantGen, Result: view})
				if err != nil {
					t.Fatal(err)
				}
				if b = append(b, '\n'); !bytes.Equal(w.Body.Bytes(), b) {
					t.Fatalf("GET %s: body\n got: %s\nwant: %s", target, w.Body, b)
				}
				// A body build leaves its cut set's view on the reference,
				// however many cut sets the reference served before, so the
				// reference's later hits copy it instead of deriving again.
				if srv.ins.snapshotEncodes.Load() != encodes {
					ref := sess.cache.current().ref
					ref.mu.Lock()
					_, stored := ref.views[cutsKey(ks)]
					ref.mu.Unlock()
					if !stored {
						t.Fatalf("GET %s: built a body, but reference %d holds no view for it", target, ref.gen)
					}
				}
			}
			if rec := sess.cache.current(); rec != nil {
				rec.mu.Lock()
				bodies := len(rec.bodies)
				rec.mu.Unlock()
				rec.ref.mu.Lock()
				views := len(rec.ref.views)
				rec.ref.mu.Unlock()
				if bodies > maxCachedBodies || views > maxCachedBodies {
					t.Fatalf("generation %d holds %d bodies and its reference %d views, bound %d",
						rec.gen, bodies, views, maxCachedBodies)
				}
			}
		}
	})
}
