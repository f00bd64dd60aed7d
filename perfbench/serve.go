package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pfg"
	"pfg/internal/serve"
	"pfg/internal/tsgen"
)

// serveSpec is one serve workload's shape.
type serveSpec struct {
	series, window int
	// rate is the open-loop push rate in single-tick pushes per second.
	rate        float64
	incremental bool
	// durable starts pfg-serve with -state-dir; the reader long-polls
	// instead of subscribing to SSE.
	durable bool
}

func sseSpec(small bool) serveSpec {
	s := serveSpec{series: 256, window: 2048, rate: 50, incremental: true}
	if small {
		s.series, s.window = 32, 128
	}
	return s
}

func pollSpec(small bool) serveSpec {
	s := serveSpec{series: 256, window: 1024, rate: 30, durable: true}
	if small {
		s.series, s.window = 32, 128
	}
	return s
}

const (
	sessionID = "bench"
	serveCut  = 8
	// setupRuns is how many times a run launches pfg-serve and brings its
	// session to the first visible snapshot; setup_s is the median, and the
	// last launch serves the timed phase.
	setupRuns = 5
	// fillTicks is the batch size of the window-filling pushes, which keeps
	// each body well under pfg-serve's 8 MiB request cap.
	fillTicks = 256
	// grace is how long after the last push a push may still become visible.
	grace = 5 * time.Second
	// longPollWait is the reader's ?wait= budget.
	longPollWait = "5s"
	// clientProcs is the load generator's GOMAXPROCS. Its pusher and reader
	// need well under one core, and running them on one leaves pfg-serve
	// the other core to itself instead of contending for both.
	clientProcs = 1
)

func runSSE(c *runConfig) (*report, error)  { return runServe(c, sseSpec(c.small)) }
func runPoll(c *runConfig) (*report, error) { return runServe(c, pollSpec(c.small)) }

// serveInput is everything a serve run sends, generated from the seed
// before any timing starts.
type serveInput struct {
	ticks  [][]float64 // ticks[t][i] is series i at tick t
	sector []int
	fill   [][]byte // batched pushes filling the window
	pushes [][]byte // single-tick pushes of the timed phase
}

func makeServeInput(spec serveSpec, seed int64, seconds float64) (*serveInput, error) {
	nPush := int(spec.rate * seconds)
	sd := tsgen.GenerateStocks(spec.series, spec.window+nPush, seed)
	in := &serveInput{sector: sd.Sector, ticks: make([][]float64, spec.window+nPush)}
	for t := range in.ticks {
		tick := make([]float64, spec.series)
		for i := range tick {
			tick[i] = sd.Returns[i][t]
		}
		in.ticks[t] = tick
	}
	for t := 0; t < spec.window; t += fillTicks {
		b, err := json.Marshal(serve.PushRequest{Samples: in.ticks[t:min(t+fillTicks, spec.window)]})
		if err != nil {
			return nil, err
		}
		in.fill = append(in.fill, b)
	}
	for _, tick := range in.ticks[spec.window:] {
		b, err := json.Marshal(serve.PushRequest{Sample: tick})
		if err != nil {
			return nil, err
		}
		in.pushes = append(in.pushes, b)
	}
	return in, nil
}

// server is one pfg-serve process.
type server struct {
	cmd   *exec.Cmd
	base  string
	state string
	log   *serverLog
}

// serverLog receives pfg-serve's standard error: it hands over the
// announced listen address and keeps the tail for error messages.
type serverLog struct {
	mu   sync.Mutex
	buf  []byte
	addr chan string
	sent bool
}

func (l *serverLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	if !l.sent {
		const pre = "pfg-serve: listening on "
		if i := bytes.Index(l.buf, []byte(pre)); i >= 0 {
			if j := bytes.IndexByte(l.buf[i:], '\n'); j >= 0 {
				l.addr <- string(l.buf[i+len(pre) : i+j])
				l.sent = true
			}
		}
	}
	if len(l.buf) > 8<<10 {
		l.buf = append(l.buf[:0], l.buf[len(l.buf)-4<<10:]...)
	}
	return len(p), nil
}

func (l *serverLog) tail() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.TrimSpace(string(l.buf))
}

func launch(c *runConfig, spec serveSpec, i int) (*server, error) {
	s := &server{log: &serverLog{addr: make(chan string, 1)}}
	args := []string{"-addr", "127.0.0.1:0"}
	if spec.durable {
		s.state = filepath.Join(c.out, "state", fmt.Sprintf("%d-%d", os.Getpid(), i))
		if err := os.RemoveAll(s.state); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(s.state, 0o755); err != nil {
			return nil, err
		}
		args = append(args, "-state-dir", s.state)
	}
	s.cmd = exec.Command(c.server, args...)
	s.cmd.Stderr = s.log
	// If the benchmark itself is killed, the server goes with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting pfg-serve: %w", err)
	}
	select {
	case addr := <-s.log.addr:
		s.base = "http://" + strings.TrimSpace(addr)
		return s, nil
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, fmt.Errorf("pfg-serve never announced its address: %s", s.log.tail())
	}
}

// stop drains pfg-serve with SIGTERM, kills it if the drain hangs, and
// waits for it to exit.
func (s *server) stop() {
	done := make(chan struct{})
	go func() {
		s.cmd.Wait()
		close(done)
	}()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
	s.removeState()
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
	s.removeState()
}

func (s *server) removeState() {
	if s.state != "" {
		os.RemoveAll(s.state)
	}
}

// countingConn counts the bytes read from a connection.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

// newClient is an HTTP client on a single connection; received bytes are
// added to n when it is non-nil.
func newClient(n *atomic.Int64) *http.Client {
	d := &net.Dialer{Timeout: 5 * time.Second}
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := d.DialContext(ctx, network, addr)
			if err != nil || n == nil {
				return conn, err
			}
			return countingConn{conn, n}, nil
		},
	}}
}

func closeClient(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }

// do sends one request and reads the whole response body.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// delivery is one SSE frame or long-poll body as it arrived; payloads are
// decoded only after the timed phase.
type delivery struct {
	at    time.Time
	event string // snapshot, delta, dropped, bye, or body (a long-poll 200)
	gen   uint64
	data  []byte
}

func (d *delivery) carriesResult() bool {
	return d.event == "snapshot" || d.event == "delta" || d.event == "body"
}

// reader is the one subscriber or long-poll client, on its own connection.
type reader struct {
	client *http.Client
	bytes  atomic.Int64
	latest atomic.Uint64 // highest generation delivered so far
	notify chan struct{} // pinged on every delivery; buffered so a ping is never lost
	first  chan struct{} // closed at the first delivered result
	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	got       []delivery
	err       error // why the reader stopped before it was cancelled
	firstOnce sync.Once
}

func startReader(base string, durable bool) *reader {
	r := &reader{notify: make(chan struct{}, 1), first: make(chan struct{}), done: make(chan struct{})}
	r.client = newClient(&r.bytes)
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	url := fmt.Sprintf("%s/v1/sessions/%s/", base, sessionID)
	if durable {
		go r.longPoll(ctx, url+"snapshot?k="+strconv.Itoa(serveCut))
	} else {
		go r.subscribe(ctx, url+"events?k="+strconv.Itoa(serveCut))
	}
	return r
}

func (r *reader) deliver(d delivery) {
	r.mu.Lock()
	r.got = append(r.got, d)
	r.mu.Unlock()
	if d.carriesResult() {
		r.latest.Store(d.gen)
		r.firstOnce.Do(func() { close(r.first) })
		select {
		case r.notify <- struct{}{}:
		default:
		}
	}
}

// stopped records why the reader ended, unless it was cancelled.
func (r *reader) stopped(ctx context.Context, err error) {
	if ctx.Err() != nil {
		return
	}
	r.mu.Lock()
	r.err = err
	r.mu.Unlock()
	select {
	case r.notify <- struct{}{}:
	default:
	}
}

func (r *reader) failure() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// close cancels the reader and waits for its goroutine to end.
func (r *reader) close() {
	r.cancel()
	<-r.done
	closeClient(r.client)
}

func (r *reader) subscribe(ctx context.Context, url string) {
	defer close(r.done)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		r.stopped(ctx, err)
		return
	}
	resp, err := r.client.Do(req)
	if err != nil {
		r.stopped(ctx, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		r.stopped(ctx, fmt.Errorf("subscribe: status %d: %s", resp.StatusCode, b))
		return
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var d delivery
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			r.stopped(ctx, fmt.Errorf("event stream ended: %v", err))
			return
		}
		line = bytes.TrimRight(line, "\n")
		switch {
		case len(line) == 0:
			d.at = time.Now()
			r.deliver(d)
			if d.event == "bye" {
				r.stopped(ctx, fmt.Errorf("server ended the event stream: %s", d.data))
				return
			}
			d = delivery{}
		case bytes.HasPrefix(line, []byte("event: ")):
			d.event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("id: ")):
			d.gen, _ = strconv.ParseUint(string(line[len("id: "):]), 10, 64)
		case bytes.HasPrefix(line, []byte("data: ")):
			d.data = line[len("data: "):]
		}
	}
}

func (r *reader) longPoll(ctx context.Context, url string) {
	defer close(r.done)
	var gen uint64
	for {
		u := url
		if gen > 0 {
			u += "&wait=" + longPollWait
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			r.stopped(ctx, err)
			return
		}
		if gen > 0 {
			req.Header.Set("If-Generation", strconv.FormatUint(gen, 10))
		}
		resp, err := r.client.Do(req)
		if err != nil {
			r.stopped(ctx, err)
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		at := time.Now()
		if err != nil {
			r.stopped(ctx, err)
			return
		}
		switch resp.StatusCode {
		case http.StatusOK:
			g, err := strconv.ParseUint(resp.Header.Get("X-Pfg-Generation"), 10, 64)
			if err != nil {
				r.stopped(ctx, fmt.Errorf("snapshot without a generation header: %v", err))
				return
			}
			gen = g
			r.deliver(delivery{at: at, event: "body", gen: g, data: body})
		case http.StatusNotModified:
		default:
			r.stopped(ctx, fmt.Errorf("long-poll: status %d: %s", resp.StatusCode, body))
			return
		}
	}
}

// session is one launched pfg-serve with its session filled and its
// reader holding the first snapshot.
type session struct {
	srv    *server
	push   *http.Client // the pusher's connection
	reader *reader
	setup  time.Duration
}

func (s *session) close() {
	if s.reader != nil {
		s.reader.close()
	}
	closeClient(s.push)
}

// setUp launches pfg-serve, creates and fills the session, and opens the
// reader; it returns once the first snapshot is visible.
func setUp(c *runConfig, spec serveSpec, in *serveInput, i int) (*session, error) {
	t0 := time.Now()
	srv, err := launch(c, spec, i)
	if err != nil {
		return nil, err
	}
	s := &session{srv: srv, push: newClient(nil)}
	fail := func(err error) (*session, error) {
		s.close()
		srv.kill()
		return nil, err
	}
	create := map[string]any{"id": sessionID, "window": spec.window, "method": "tmfg-dbht"}
	if spec.incremental {
		create["incremental"] = map[string]any{}
	}
	body, _ := json.Marshal(create)
	if st, b, err := do(s.push, http.MethodPost, srv.base+"/v1/sessions", body); err != nil || st/100 != 2 {
		return fail(fmt.Errorf("create session: status %d, %v: %s", st, err, b))
	}
	for _, f := range in.fill {
		if st, b, err := do(s.push, http.MethodPost, srv.base+"/v1/sessions/"+sessionID+"/push", f); err != nil || st/100 != 2 {
			return fail(fmt.Errorf("fill push: status %d, %v: %s", st, err, b))
		}
	}
	s.reader = startReader(srv.base, spec.durable)
	select {
	case <-s.reader.first:
	case <-s.reader.done:
		return fail(fmt.Errorf("reader stopped before the first snapshot: %v", s.reader.failure()))
	case <-time.After(60 * time.Second):
		return fail(fmt.Errorf("no snapshot within 60s of filling the window"))
	}
	s.setup = time.Since(t0)
	return s, nil
}

// pushRec is one timed push.
type pushRec struct {
	due, sent, acked time.Time
	status           int
	body             []byte
	err              error
	// Decoded after the timed phase.
	gen     uint64
	ok      bool
	visible time.Time
}

func runServe(c *runConfig, spec serveSpec) (*report, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(clientProcs))
	workload := c.workload
	rep := &report{
		params: map[string]any{
			"series": spec.series, "window": spec.window, "method": "tmfg-dbht", "cut": serveCut,
			"rate_per_s": spec.rate, "incremental": spec.incremental, "durable": spec.durable,
			"loop": "open, one pusher connection and one reader connection", "setup_runs": setupRuns,
			"input": "tsgen.GenerateStocks returns",
		},
		procs: map[string]int{"perfbench": clientProcs, "pfg-serve": serverGOMAXPROCS()},
	}
	in, err := makeServeInput(spec, c.seed, c.seconds)
	if err != nil {
		return nil, err
	}

	// Set-up, several times; the last launch stays up for the timed phase.
	var setups []float64
	var s *session
	for i := range setupRuns {
		if s != nil {
			s.close()
			s.srv.kill()
		}
		if s, err = setUp(c, spec, in, i); err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
	}
	defer s.srv.stop()
	defer s.close()
	pid := s.srv.cmd.Process.Pid

	var tr *tracer
	var before *scrapeData
	if c.trace {
		tr = newTracer()
		if before, err = scrape(s.push, s.srv.base); err != nil {
			return nil, err
		}
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	bytes0 := s.reader.bytes.Load()
	pushURL := s.srv.base + "/v1/sessions/" + sessionID + "/push"

	// Timed phase: open loop. Push i is due at t0 + i/rate and is timed from
	// then, however late the single connection lets it go out. The load
	// generator's own collector stays off until every push is visible, so
	// its pauses do not land in the figures; the phase allocates a few tens
	// of MB.
	gcPercent := debug.SetGCPercent(-1)
	period := time.Duration(float64(time.Second) / spec.rate)
	recs := make([]pushRec, len(in.pushes))
	t0 := time.Now()
	for i := range recs {
		r := &recs[i]
		r.due = t0.Add(time.Duration(i) * period)
		if d := time.Until(r.due); d > 0 {
			time.Sleep(d)
		}
		r.sent = time.Now()
		r.status, r.body, r.err = do(s.push, http.MethodPost, pushURL, in.pushes[i])
		r.acked = time.Now()
		if tr != nil && i%2 == 1 {
			id := tr.add("client.request", 0, uint64(i), r.due, r.acked)
			tr.add("client.late", id, uint64(i), r.due, r.sent)
			tr.add("client.push_rtt", id, uint64(i), r.sent, r.acked)
		}
	}

	// Acks are decoded now; then every acknowledged generation gets the
	// grace period to become visible.
	var last uint64
	for i := range recs {
		r := &recs[i]
		if r.err != nil || r.status/100 != 2 {
			continue
		}
		var pr serve.PushResponse
		if err := json.Unmarshal(r.body, &pr); err != nil || pr.Admitted != 1 {
			r.err = fmt.Errorf("push response %q: %v", r.body, err)
			continue
		}
		r.gen, r.ok = pr.Generation, true
		last = max(last, pr.Generation)
	}
	deadline := time.After(grace)
wait:
	for s.reader.latest.Load() < last && s.reader.failure() == nil {
		select {
		case <-s.reader.notify:
		case <-deadline:
			break wait
		}
	}
	cpu1, err := procCPU(pid)
	debug.SetGCPercent(gcPercent)
	if err != nil {
		return nil, err
	}
	readBytes := s.reader.bytes.Load() - bytes0
	var after *scrapeData
	if c.trace {
		if after, err = scrape(s.push, s.srv.base); err != nil {
			return nil, err
		}
	}
	readerErr := s.reader.failure()
	s.reader.close()
	got := s.reader.got
	rss, err := peakRSSMB(pid)
	if err != nil {
		return nil, err
	}

	// Decode what the reader stored and check it.
	var final *pfg.ResultJSON
	var finalGen uint64
	var bad []bool
	q := &quality{sector: in.sector, since: t0}
	if spec.durable {
		final, finalGen, bad = checkBodies(rep, got, q)
		if final != nil {
			checkShadow(rep, spec, in, final, finalGen)
		}
	} else {
		final, finalGen, bad = checkEvents(rep, got, q)
		if final != nil {
			checkGET(rep, s, final, finalGen)
		}
	}
	if readerErr != nil {
		rep.fail("reader: %v", readerErr)
	}

	// Match each acknowledged push to the first result carrying its
	// generation. A push fails on a transport error or non-2xx ack, when it
	// never became visible, or when the result that first showed it came
	// after a dropped notice or failed to decode.
	var visible, ack, wait, turn, late []float64
	delivered := 0
	j, dropped := 0, false
	for _, d := range got {
		if d.carriesResult() && d.at.After(t0) {
			delivered++
		}
	}
	for i := range recs {
		r := &recs[i]
		rep.attempted++
		if !r.ok {
			rep.failed++
			if len(rep.checks) < 20 {
				rep.fail("push %d: status %d: %v", i, r.status, r.err)
			}
			continue
		}
		for j < len(got) && (!got[j].carriesResult() || got[j].gen < r.gen) {
			if got[j].event == "dropped" {
				dropped = true
			}
			if got[j].carriesResult() {
				dropped = false
			}
			j++
		}
		if j == len(got) || dropped || bad[j] {
			rep.failed++
			continue
		}
		r.visible = got[j].at
		visible = append(visible, ms(r.visible.Sub(r.due)))
		ack = append(ack, ms(r.acked.Sub(r.due)))
		wait = append(wait, ms(max(0, r.visible.Sub(r.acked))))
		turn = append(turn, ms(r.visible.Sub(r.sent)))
		late = append(late, ms(r.sent.Sub(r.due)))
	}

	rep.addE2E("setup_s", median(setups), "s")
	rep.addE2E("visible_p50_ms", quantile(visible, 0.5), "ms")
	rep.addE2E("visible_p99_ms", quantile(visible, 0.99), "ms")
	rep.addE2E("ack_p50_ms", quantile(ack, 0.5), "ms")
	rep.addE2E("ack_p99_ms", quantile(ack, 0.99), "ms")
	// On a serve workload the clustering runs inside the server; what a
	// client sees of it is the turnaround from sending a push until the
	// clustered answer carrying its generation arrives.
	rep.addE2E("cluster_p50_ms", quantile(turn, 0.5), "ms")
	rep.addE2E("cluster_p90_ms", quantile(turn, 0.9), "ms")
	rep.addE2E("cpu_ms_per_op", ms(cpu1-cpu0)/float64(len(recs)), "ms")
	rep.addE2E("peak_rss_mb", rss, "MB")
	rep.addE2E("bytes_per_update", float64(readBytes)/float64(max(delivered, 1)), "bytes")
	rep.addE2E("ari", q.mean(), "index")
	rep.params["timed_pushes"] = len(recs)
	rep.params["delivered_generations"] = delivered
	if tr == nil {
		return rep, nil
	}

	// Traced run: the rest of each push's spans, built from the timestamps
	// the pusher and reader took, then the per-layer metrics.
	rep.spans = tr
	var tracedVis, plainVis []float64
	for i := range tr.spans {
		tr.spans[i].Req = recs[tr.spans[i].Req].gen
	}
	live := map[uint64]int{}
	for _, sp := range tr.spans {
		if sp.Name == "client.request" {
			live[sp.Req] = sp.ID
		}
	}
	for i := range recs {
		r := &recs[i]
		if r.visible.IsZero() {
			continue
		}
		v := ms(r.visible.Sub(r.due))
		id, ok := live[r.gen]
		if ok {
			tracedVis = append(tracedVis, v)
			tr.spans[id-1].End = int64(r.visible.Sub(tr.t0))
		} else {
			plainVis = append(plainVis, v)
			id = tr.add("client.request", 0, r.gen, r.due, r.visible)
			tr.add("client.late", id, r.gen, r.due, r.sent)
			tr.add("client.push_rtt", id, r.gen, r.sent, r.acked)
		}
		if r.visible.After(r.acked) {
			tr.add("client.visible_wait", id, r.gen, r.acked, r.visible)
		}
	}
	lm := newLayerMetrics()
	serveLayers(lm, before.diff(after), spec, len(recs), delivered)
	lm.set("client.late_ms_p50", quantile(late, 0.5))
	lm.set("client.late_ms_max", quantile(late, 1))
	lm.set("client.push_rtt_ms", median(tr.durations("client.push_rtt")))
	lm.set("client.visible_wait_ms", median(wait))
	lm.set("client.ack_p50_ms", quantile(ack, 0.5))
	lm.set("client.ack_p99_ms", quantile(ack, 0.99))
	lm.set("client.visible_p99_ms", quantile(visible, 0.99))
	if v, ok := lm.vals["serve.push_batch_us"]; ok {
		lm.set("serve.unattributed_ms", mean(visible)-(mean(late)+v/1e3+lm.vals["serve.run_ms"]))
	}
	over := median(tracedVis) - median(plainVis)
	lm.set("trace.overhead_ms", over)
	if m := median(plainVis); m > 0 {
		lm.set("trace.overhead_pct", 100*over/m)
	}
	lm.note("trace.overhead_ms", "visible p50 of pushes spanned live minus pushes spanned afterwards, alternating")
	lm.emit(rep, workload+" does no in-process batch clustering")
	return rep, nil
}

// serverGOMAXPROCS is the GOMAXPROCS pfg-serve runs with: it inherits this
// environment, where an unset GOMAXPROCS means the CPU count.
func serverGOMAXPROCS() int {
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		return v
	}
	return runtime.NumCPU()
}

// checkEvents decodes the SSE frames in order, rebuilding the subscriber's
// view through ResultJSON.ApplyDelta. bad[j] marks a frame that did not
// decode or apply.
func checkEvents(rep *report, got []delivery, q *quality) (*pfg.ResultJSON, uint64, []bool) {
	bad := make([]bool, len(got))
	var view *pfg.ResultJSON
	var viewGen uint64
	for j, d := range got {
		switch d.event {
		case "snapshot":
			var sr serve.SnapshotResponse
			if err := json.Unmarshal(d.data, &sr); err != nil || sr.Result == nil || sr.Generation != d.gen {
				bad[j] = true
				rep.fail("snapshot frame %d: generation %d, %v", d.gen, sr.Generation, err)
				continue
			}
			view, viewGen = sr.Result, sr.Generation
		case "delta":
			var dr serve.DeltaResponse
			if err := json.Unmarshal(d.data, &dr); err != nil || dr.Delta == nil {
				bad[j] = true
				rep.fail("delta frame %d: %v", d.gen, err)
				continue
			}
			if view == nil || dr.FromGeneration != viewGen || dr.Generation != d.gen {
				bad[j] = true
				rep.fail("delta frame %d from %d does not chain onto view %d", d.gen, dr.FromGeneration, viewGen)
				continue
			}
			next, err := view.ApplyDelta(dr.Delta)
			if err != nil {
				bad[j] = true
				rep.fail("delta frame %d: ApplyDelta: %v", d.gen, err)
				continue
			}
			view, viewGen = next, dr.Generation
		default:
			continue
		}
		q.add(rep, &d, view)
	}
	return view, viewGen, bad
}

// quality averages, over the answers delivered in the timed phase, the
// ARI of Cut(8) against the stock generator's sector labels. One window's
// ARI swings with the seed by ~0.2 of its median; the average over a run's
// windows by well under half that.
type quality struct {
	sector []int
	since  time.Time
	sum    float64
	n      int
}

func (q *quality) add(rep *report, d *delivery, r *pfg.ResultJSON) {
	if !d.at.After(q.since) {
		return
	}
	a, err := pfg.ARI(r.Cuts[strconv.Itoa(serveCut)], q.sector)
	if err != nil {
		rep.fail("ARI at generation %d: %v", d.gen, err)
		return
	}
	q.sum += a
	q.n++
}

func (q *quality) mean() float64 { return q.sum / float64(max(q.n, 1)) }

// checkGET compares the subscriber's final reconstructed view with a GET
// /snapshot at the same generation.
func checkGET(rep *report, s *session, view *pfg.ResultJSON, gen uint64) {
	st, b, err := do(s.push, http.MethodGet, fmt.Sprintf("%s/v1/sessions/%s/snapshot?k=%d", s.srv.base, sessionID, serveCut), nil)
	if err != nil || st != http.StatusOK {
		rep.fail("final GET /snapshot: status %d, %v", st, err)
		return
	}
	var sr serve.SnapshotResponse
	if err := json.Unmarshal(b, &sr); err != nil || sr.Result == nil {
		rep.fail("final GET /snapshot: %v", err)
		return
	}
	if sr.Generation != gen {
		rep.fail("final SSE view is generation %d, GET /snapshot serves %d", gen, sr.Generation)
		return
	}
	if !sameResult(view, sr.Result) {
		rep.fail("final SSE view at generation %d differs from GET /snapshot", gen)
	}
}

// checkBodies decodes the long-poll bodies; bad[j] marks one that did not
// decode or whose generation disagrees with its header.
func checkBodies(rep *report, got []delivery, q *quality) (*pfg.ResultJSON, uint64, []bool) {
	bad := make([]bool, len(got))
	var last *pfg.ResultJSON
	var lastGen uint64
	for j, d := range got {
		var sr serve.SnapshotResponse
		if err := json.Unmarshal(d.data, &sr); err != nil || sr.Result == nil || sr.Generation != d.gen {
			bad[j] = true
			rep.fail("long-poll body %d: generation %d, %v", d.gen, sr.Generation, err)
			continue
		}
		last, lastGen = sr.Result, sr.Generation
		q.add(rep, &d, last)
	}
	return last, lastGen, bad
}

// checkShadow replays the same ticks into an in-process Workers:1 streamer
// and compares its result at gen with the final long-poll body.
func checkShadow(rep *report, spec serveSpec, in *serveInput, body *pfg.ResultJSON, gen uint64) {
	st, err := pfg.NewStreamer(spec.window, pfg.StreamOptions{Cluster: pfg.Options{Workers: 1}})
	if err != nil {
		rep.fail("shadow streamer: %v", err)
		return
	}
	defer st.Close()
	for t := 0; t < len(in.ticks) && st.Generation() < gen; t++ {
		if err := st.Push(in.ticks[t]); err != nil {
			rep.fail("shadow push %d: %v", t, err)
			return
		}
	}
	res, g, err := st.SnapshotGen(context.Background())
	if err != nil || g != gen {
		rep.fail("shadow streamer at generation %d, want %d: %v", g, gen, err)
		return
	}
	want, err := res.JSON([]int{serveCut}, nil)
	if err != nil {
		rep.fail("shadow result: %v", err)
		return
	}
	if !sameResult(body, want) {
		rep.fail("final long-poll body at generation %d differs from the shadow streamer", gen)
	}
}

func sameResult(a, b *pfg.ResultJSON) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(x, y)
}

// serveLayers derives the per-layer metrics from the /metricsz and /statsz
// differences over the timed phase.
func serveLayers(lm *layerMetrics, d *scrapeDiff, spec serveSpec, pushes, delivered int) {
	histMean := func(name, family, labels string, scale float64) {
		sum, count := d.hist(family, labels)
		lm.ratio(name, sum/scale, count)
	}
	histMean("stream.admit_us", "pfg_tick_stage_ns", `stage="admit"`, 1e3)
	histMean("stream.roll_us", "pfg_tick_stage_ns", `stage="roll"`, 1e3)
	_, rebuilds := d.hist("pfg_tick_stage_ns", `stage="rebuild"`)
	lm.set("stream.rebuilds", rebuilds)
	histMean("stream.rebuild_ms", "pfg_tick_stage_ns", `stage="rebuild"`, 1e6)
	histMean("matrix.finish_ms", "pfg_snapshot_stage_ns", `stage="finish"`, 1e6)
	histMean("core.cluster_ms", "pfg_snapshot_stage_ns", `stage="cluster"`, 1e6)
	histMean("serve.push_batch_us", "pfg_push_batch_ns", "", 1e3)
	histMean("serve.run_ms", "pfg_snapshot_run_ns", "", 1e6)
	gens := float64(delivered)
	lm.ratio("serve.runs_per_gen", d.stat("snapshot_runs"), gens)
	lm.ratio("serve.encodes_per_gen", d.stat("snapshot_encodes"), gens)
	lm.ratio("serve.gens_per_push", gens, float64(pushes))
	lm.set("serve.errors", d.stat("events_dropped")+d.stat("delta_fallback_fulls")+
		d.stat("snapshot_rejected")+d.stat("snapshot_errors"))
	if spec.incremental {
		hits, fulls := d.stat("incremental_hits"), d.stat("incremental_fulls")
		lm.ratio("inc.hit_ratio", hits, hits+fulls)
		lm.set("inc.fulls_drift", d.stat("incremental_fulls_drift"))
		lm.set("inc.fulls_stale", d.stat("incremental_fulls_stale"))
		lm.set("inc.fulls_boundary", d.stat("incremental_fulls_boundary"))
		histMean("inc.drift_us", "pfg_inc_stage_ns", `stage="drift"`, 1e3)
		histMean("inc.refresh_ms", "pfg_inc_stage_ns", `stage="refresh"`, 1e6)
	} else {
		for _, m := range []string{"inc.hit_ratio", "inc.fulls_drift", "inc.fulls_stale", "inc.fulls_boundary", "inc.drift_us", "inc.refresh_ms"} {
			lm.note(m, "not measured: the session is exact, so the inc layer never runs")
		}
	}
	sseOnly := []string{"serve.delta_fraction", "serve.event_bytes_per_gen", "serve.queue_depth_mean"}
	pollOnly := []string{"serve.long_poll_waits", "serve.not_modified", "ckpt.checkpoints", "ckpt.checkpoint_ms", "ckpt.checkpoint_mb", "ckpt.wal_bytes_per_push"}
	if spec.durable {
		lm.set("serve.long_poll_waits", d.stat("long_poll_waits"))
		lm.set("serve.not_modified", d.stat("not_modified"))
		_, n := d.hist("pfg_checkpoint_write_ns", "")
		lm.set("ckpt.checkpoints", n)
		histMean("ckpt.checkpoint_ms", "pfg_checkpoint_write_ns", "", 1e6)
		histMean("ckpt.checkpoint_mb", "pfg_checkpoint_write_bytes", "", 1e6)
		lm.ratio("ckpt.wal_bytes_per_push", d.stat("wal_bytes"), d.stat("wal_frames"))
		for _, m := range sseOnly {
			lm.note(m, "not measured: the long-poll reader has no event stream")
		}
	} else {
		ev, full := d.stat("events_delta"), d.stat("events_full")
		lm.ratio("serve.delta_fraction", ev, ev+full)
		lm.ratio("serve.event_bytes_per_gen", d.stat("event_bytes"), gens)
		histMean("serve.queue_depth_mean", "pfg_subscriber_queue_depth", "", 1)
		for _, m := range pollOnly {
			lm.note(m, "not measured: the session is not durable and nobody long-polls")
		}
	}
}
