package serve

// HTTP tests of the session precision field: sessions store float64
// moments, create accepts only that precision and rejects every other name
// with a 400, and session info and /statsz report "float64" alongside the
// kernel ISA and the float64 ring/band byte accounting.

import (
	"net/http"
	"strings"
	"testing"

	"pfg"
)

func TestSessionPrecisionWireAndAccounting(t *testing.T) {
	h := newTestServer(t, Options{})
	const n, window, count = 12, 16, 24
	stream := ticks(t, n, count, 99)

	for _, tc := range []struct{ id, prec string }{
		{"s64", ""},
		{"s64named", "float64"},
	} {
		var info SessionInfo
		h.mustJSON("POST", "/v1/sessions", CreateSessionRequest{
			ID: tc.id, Window: window, Precision: tc.prec,
		}, http.StatusCreated, &info)
		if info.Precision != "float64" {
			t.Fatalf("%s: created with precision %q, want \"float64\"", tc.id, info.Precision)
		}
		if info.RingBytes != 0 || info.BandBytes != 0 {
			t.Fatalf("%s: nonzero memory before the first push: %+v", tc.id, info)
		}
		h.mustJSON("POST", "/v1/sessions/"+tc.id+"/push",
			PushRequest{Samples: stream}, http.StatusOK, nil)
		h.mustJSON("GET", "/v1/sessions/"+tc.id, nil, http.StatusOK, &info)
		if info.RingBytes != window*n*8 || info.BandBytes != n*n*8 {
			t.Fatalf("%s: ring %d band %d bytes, want %d and %d",
				tc.id, info.RingBytes, info.BandBytes, window*n*8, n*n*8)
		}
	}

	// /statsz reports the kernel backend and each session's precision.
	var stats StatsSnapshot
	h.mustJSON("GET", "/statsz", nil, http.StatusOK, &stats)
	if stats.KernelISA != pfg.KernelISA() || stats.KernelISA == "" {
		t.Fatalf("statsz kernel_isa = %q, want %q", stats.KernelISA, pfg.KernelISA())
	}
	seen := map[string]string{}
	for _, info := range stats.SessionInfos {
		seen[info.ID] = info.Precision
	}
	if seen["s64"] != "float64" || seen["s64named"] != "float64" {
		t.Fatalf("statsz session precisions: %v", seen)
	}

	// Every other precision is a 400 that names it, and creates nothing.
	for _, prec := range []string{"float32", "f32", "float16"} {
		status, body := h.do("POST", "/v1/sessions", CreateSessionRequest{
			ID: "bad", Window: window, Precision: prec,
		})
		if status != http.StatusBadRequest || !strings.Contains(string(body), prec) {
			t.Fatalf("precision %q: %d %s, want a 400 naming it", prec, status, body)
		}
	}
	if status, _ := h.do("GET", "/v1/sessions/bad", nil); status != http.StatusNotFound {
		t.Fatalf("rejected create left a session behind: %d", status)
	}
}
