package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fastsched/internal/bounds"
	"fastsched/internal/casch"
	"fastsched/internal/dag"
	"fastsched/internal/obs"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
	"fastsched/internal/server"
	"fastsched/internal/workload"
)

// Input streams, so each kind of input draws from its own generator.
const (
	streamWarm = iota + 1
	streamLatency
	streamClosed
	streamHotKeys
	streamHotOrder
	streamFlat
	streamJobs
	streamCrashes
)

// serveInput is one rendered request: a §5.2 random graph in the JSON
// form dagen writes, wrapped in a /v1/schedule body.
type serveInput struct {
	graph     *dag.Graph
	graphJSON []byte
	body      []byte
	seed      int64
	lower     float64 // lowerBound(graph, procs), filled by check
}

// renderInput builds input i of a stream. Graph sizes cycle through
// ServeVs, so every run sends the same mix of sizes. The default mix
// 50, 100, 100, 200 puts the median request inside the v = 100 cluster
// of latencies rather than in the gap between two clusters, where it
// would jump with small shifts.
func renderInput(cfg config, stream int64, i int) (*serveInput, error) {
	rng := subRand(cfg.Seed, stream<<32|int64(i))
	v := cfg.ServeVs[i%len(cfg.ServeVs)]
	g, err := workload.Random(workload.RandomOpts{V: v, Seed: rng.Int64()})
	if err != nil {
		return nil, err
	}
	var gj bytes.Buffer
	if err := dag.WriteJSON(&gj, g, ""); err != nil {
		return nil, err
	}
	in := &serveInput{graph: g, graphJSON: gj.Bytes(), seed: 1 + rng.Int64N(1<<20)}
	body := fmt.Appendf(nil, `{"algorithm":"fast","procs":%d,"seed":%d,"graph":`, cfg.Procs, in.seed)
	body = append(body, in.graphJSON...)
	in.body = append(body, '}')
	return in, nil
}

// renderMany renders inputs [from, from+n) of a stream on every CPU.
func renderMany(cfg config, stream int64, from, n int) ([]*serveInput, error) {
	out := make([]*serveInput, n)
	errs := make([]error, n)
	parallel(n, func(i int) { out[i], errs[i] = renderInput(cfg, stream, from+i) })
	return out, errors.Join(errs...)
}

// parallel calls f(0..n-1) on GOMAXPROCS goroutines and waits.
func parallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// listener is a net/http server on a port of 127.0.0.1.
type listener struct {
	hs     *http.Server
	served chan error
	url    string
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{hs: &http.Server{Handler: h}, served: make(chan error, 1), url: "http://" + ln.Addr().String() + "/v1/schedule"}
	go func() { l.served <- l.hs.Serve(ln) }()
	return l, nil
}

// close shuts the server down and waits for Serve to return.
func (l *listener) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// loopback is a schedd server.Server behind a listener, and a client
// limited to GOMAXPROCS connections per server.
type loopback struct {
	*listener
	srv    *server.Server
	client *http.Client
	spans  *handlerSpans // nil unless traced
	echo   *echoServer   // nil unless traced
}

func startLoopback(cfg config, traced bool) (*loopback, error) {
	conns := runtime.GOMAXPROCS(0)
	srv, err := server.New(server.Options{})
	if err != nil {
		return nil, err
	}
	lb := &loopback{srv: srv, client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}}
	h := srv.Handler()
	if cfg.corrupt {
		h = corrupting(h)
	}
	if traced {
		lb.spans = newHandlerSpans()
		h = lb.spans.wrap(h)
		if lb.echo, err = startEcho(); err != nil {
			srv.Close()
			return nil, err
		}
	}
	if lb.listener, err = listen(h); err != nil {
		if lb.echo != nil {
			lb.echo.close()
		}
		srv.Close()
		return nil, err
	}
	return lb, nil
}

// close stops the listeners and drains the server.
func (lb *loopback) close() error {
	lb.client.CloseIdleConnections()
	err := lb.listener.close()
	if lb.echo != nil {
		if eerr := lb.echo.close(); err == nil {
			err = eerr
		}
	}
	if cerr := lb.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// echoServer reads each request's body and answers with the body it
// was last given: an HTTP exchange of a served request's bytes without
// the server's work. A traced run times one per request to measure
// http.transport.
type echoServer struct {
	*listener
	spans *handlerSpans
	mu    sync.Mutex
	body  []byte
}

func startEcho() (*echoServer, error) {
	e := &echoServer{spans: newHandlerSpans()}
	var err error
	e.listener, err = listen(e.spans.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		e.mu.Lock()
		body := e.body
		e.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	})))
	return e, err
}

// transport sends in's body to the echo server, which answers with
// response, and returns the client's time outside the echo handler.
func (lb *loopback) transport(in *serveInput, op int64, response []byte) (time.Duration, error) {
	lb.echo.mu.Lock()
	lb.echo.body = response
	lb.echo.mu.Unlock()
	r := lb.post(lb.echo.url, in, op)
	if r.err != nil || r.status != http.StatusOK || !bytes.Equal(r.body, response) {
		return 0, fmt.Errorf("echo failed: %v (status %d)", r.err, r.status)
	}
	h, ok := lb.echo.spans.get(op)
	if !ok {
		return 0, fmt.Errorf("no echo handler span")
	}
	return r.end.Sub(r.start) - h[1].Sub(h[0]), nil
}

// corrupting passes responses through with a digit put in front of
// the makespan, so it no longer equals the schedule's length.
func corrupting(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(bytes.Replace(rec.Body.Bytes(), []byte(`"makespan":`), []byte(`"makespan":1`), 1))
	})
}

// handlerSpans times the server's Handler() per request, keyed by the
// X-Request-ID the benchmark's client sets.
type handlerSpans struct {
	mu sync.Mutex
	at map[int64][2]time.Time
}

func newHandlerSpans() *handlerSpans { return &handlerSpans{at: map[int64][2]time.Time{}} }

func (hs *handlerSpans) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		if op, err := strconv.ParseInt(r.Header.Get("X-Request-ID"), 10, 64); err == nil {
			hs.mu.Lock()
			hs.at[op] = [2]time.Time{start, end}
			hs.mu.Unlock()
		}
	})
}

func (hs *handlerSpans) get(op int64) ([2]time.Time, bool) {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	t, ok := hs.at[op]
	return t, ok
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status   int
	body     []byte
	cache    string  // X-Fastsched-Cache
	engineMS float64 // X-Fastsched-Elapsed-Ms
	start    time.Time
	end      time.Time
	err      error
}

func (lb *loopback) post(url string, in *serveInput, op int64) reply {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(in.body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", strconv.FormatInt(op, 10))
	r := reply{start: time.Now()}
	resp, err := lb.client.Do(req)
	if err != nil {
		r.end, r.err = time.Now(), err
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.end = time.Now()
	r.status = resp.StatusCode
	r.cache = resp.Header.Get("X-Fastsched-Cache")
	if h := resp.Header.Get("X-Fastsched-Elapsed-Ms"); h != "" {
		r.engineMS, _ = strconv.ParseFloat(h, 64) // a missing or bad header is caught by check
	}
	return r
}

// record is one timed request.
type record struct {
	in  *serveInput
	op  int64
	rep reply
}

// latencyMS is the request's latency: from sending it to reading the
// last byte of its response. A failed request never completed.
func (r *record) latencyMS() float64 {
	if r.rep.err != nil || r.rep.status != http.StatusOK {
		return math.Inf(1)
	}
	return ms(r.rep.end.Sub(r.rep.start))
}

// sequential sends ins one at a time over one connection, each when the
// previous response has been read, so no request waits behind another.
func sequential(lb *loopback, ins []*serveInput, op0 int64) []record {
	recs := make([]record, len(ins))
	for i, in := range ins {
		op := op0 + int64(i)
		recs[i] = record{in: in, op: op, rep: lb.post(lb.url, in, op)}
	}
	return recs
}

// closedLoop sends ins in order from conns goroutines, each sending its
// next request when its previous one completes, until the inputs run
// out or the deadline passes. It returns the completed records and the
// time from the first send to the last response.
func closedLoop(lb *loopback, ins []*serveInput, conns int, op0 int64, deadline time.Time) ([]record, time.Duration) {
	recs := make([]record, len(ins))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(ins) {
					return
				}
				op := op0 + int64(i)
				recs[i] = record{in: ins[i], op: op, rep: lb.post(lb.url, ins[i], op)}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	done := recs[:0]
	for _, r := range recs {
		if r.in != nil {
			done = append(done, r)
		}
	}
	return done, elapsed
}

// scheduleJSON is the /v1/schedule response payload.
type scheduleJSON struct {
	Algorithm  string  `json:"algorithm"`
	Makespan   float64 `json:"makespan"`
	ProcsUsed  int     `json:"procs_used"`
	Placements []struct {
		Node   int     `json:"node"`
		Proc   int     `json:"proc"`
		Start  float64 `json:"start"`
		Finish float64 `json:"finish"`
	} `json:"placements"`
}

// checkResponse rebuilds the schedule a response describes and checks
// it against the request graph: every node placed once on one of the
// requested processors, sched.Validate's precedence, duration and
// overlap rules, and a makespan and processor count equal to the
// rebuilt schedule's.
func checkResponse(g *dag.Graph, procs int, body []byte) (*sched.Schedule, float64, error) {
	var r scheduleJSON
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, 0, fmt.Errorf("response does not parse: %v", err)
	}
	v := g.NumNodes()
	if len(r.Placements) != v {
		return nil, 0, fmt.Errorf("%d placements for %d nodes", len(r.Placements), v)
	}
	s := sched.New(v)
	for _, p := range r.Placements {
		if p.Node < 0 || p.Node >= v || s.Assigned(dag.NodeID(p.Node)) {
			return nil, 0, fmt.Errorf("placement for node %d is out of range or repeated", p.Node)
		}
		if p.Proc < 0 || p.Proc >= procs {
			return nil, 0, fmt.Errorf("node %d on processor %d of %d", p.Node, p.Proc, procs)
		}
		s.Place(dag.NodeID(p.Node), p.Proc, p.Start, p.Finish)
	}
	if err := sched.Validate(g, s); err != nil {
		return nil, 0, err
	}
	if r.Makespan != s.Length() {
		return nil, 0, fmt.Errorf("makespan %v, schedule length %v", r.Makespan, s.Length())
	}
	if r.ProcsUsed != s.ProcsUsed() {
		return nil, 0, fmt.Errorf("procs_used %d, schedule uses %d", r.ProcsUsed, s.ProcsUsed())
	}
	return s, r.Makespan, nil
}

// checked is the outcome of checking one record.
type checked struct {
	sched    *sched.Schedule
	makespan float64
	err      error
}

// checkMisses checks every record's reply, in parallel. Every reply
// must be a result-cache miss.
func checkMisses(cfg config, recs []record) []checked {
	out := make([]checked, len(recs))
	parallel(len(recs), func(i int) {
		r := &recs[i]
		switch {
		case r.rep.err != nil:
			out[i].err = r.rep.err
		case r.rep.status != http.StatusOK:
			out[i].err = fmt.Errorf("status %d: %s", r.rep.status, bytes.TrimSpace(r.rep.body))
		case r.rep.cache != "miss":
			out[i].err = fmt.Errorf("cache label %q, want a miss", r.rep.cache)
		case r.rep.engineMS <= 0:
			out[i].err = fmt.Errorf("no engine elapsed time in the reply")
		default:
			out[i].sched, out[i].makespan, out[i].err = checkResponse(r.in.graph, cfg.Procs, r.rep.body)
		}
	})
	return out
}

// lowerBound is the makespan lower bound of g on procs processors that
// makespan_ratio divides by: bounds.Compute's processor-independent
// bounds (the computation-only critical path and its communication-
// aware sharpening) and the area bound work/procs. It leaves out the
// Fernández interval sweep, which costs up to 0.2 s per graph at
// v ≤ 160 — more than the request it would grade. 0 means g is not a
// DAG.
func lowerBound(g *dag.Graph, procs int) float64 {
	b, err := bounds.Compute(g, 0)
	if err != nil {
		return 0
	}
	return math.Max(b.Combined, g.TotalWork()/float64(procs))
}

// tally folds checked records into the result.
func tally(res *result, recs []record, cks []checked) {
	for i, c := range cks {
		res.Attempted++
		if c.err != nil {
			res.fail("request %d: %v", recs[i].op, c.err)
		}
	}
}

// serveState accumulates one serving run's measurements.
type serveState struct {
	cfg     config
	conns   int
	res     *result
	windows []window
	client  []float64 // sequential requests that succeeded, ms each
	ratios  []float64 // sequential requests, makespan / lower bound
}

// window is one sequential phase followed by one closed loop.
type window struct {
	latency []float64     // sequential requests, ms each (+Inf if failed)
	closed  int           // closed-loop requests completed
	busy    time.Duration // closed-loop time
}

func newServeState(cfg config) *serveState {
	return &serveState{cfg: cfg, conns: runtime.GOMAXPROCS(0), res: &result{}}
}

// addSequential counts the sequential replies and grades the good ones
// for makespan_ratio.
func (st *serveState) addSequential(w *window, recs []record, cks []checked) {
	tally(st.res, recs, cks)
	// Lower bounds are per input; inputs repeat on serve-hot.
	var todo []*serveInput
	seen := map[*serveInput]bool{}
	for _, r := range recs {
		if r.in.lower == 0 && !seen[r.in] {
			seen[r.in] = true
			todo = append(todo, r.in)
		}
	}
	parallel(len(todo), func(i int) { todo[i].lower = lowerBound(todo[i].graph, st.cfg.Procs) })
	for i := range recs {
		r := &recs[i]
		w.latency = append(w.latency, r.latencyMS())
		if cks[i].err != nil {
			continue
		}
		st.client = append(st.client, r.latencyMS())
		if r.in.lower <= 0 {
			st.res.fail("request %d: no lower bound for the graph", r.op)
			continue
		}
		st.ratios = append(st.ratios, cks[i].makespan/r.in.lower)
	}
}

// addClosed counts closed-loop replies but leaves them out of
// makespan_ratio: how many are sent depends on the server's speed, and
// the sequential requests are fixed by the seed.
func (st *serveState) addClosed(w *window, recs []record, cks []checked, elapsed time.Duration) {
	tally(st.res, recs, cks)
	w.closed += len(recs)
	w.busy += elapsed
}

// endToEnd sets the end-to-end metrics: each timing figure is the
// median over the windows of that window's figure. The host this
// benchmark was built on slows down for seconds at a time with no steal
// to show for it, so a median over windows discards the disturbed ones
// where a figure pooled over the run would not. The live heap is taken
// while lb still serves, after the caller dropped its inputs.
//
// Latency comes from the sequential requests, which never queue behind
// one another. Latency under concurrent load grows faster than the
// service time whenever the host slows down, since every slower request
// also delays the ones behind it: over two sets of five serve-hot runs
// on a 2-vCPU virtual machine, an open loop at 60 requests/s spread
// 0.14 and 0.34 of its median at p50 and 0.25 and 0.45 at p90, where
// sequential requests in the same runs spread 0.04–0.07. The closed
// loop measures the load side as ops_per_s.
func (st *serveState) endToEnd(setups []float64, lb *loopback) {
	var p50, p90, rate []float64
	for _, w := range st.windows {
		st.res.Samples += len(w.latency)
		p50 = append(p50, quantile(w.latency, 0.50))
		p90 = append(p90, quantile(w.latency, 0.90))
		rate = append(rate, float64(w.closed)/w.busy.Seconds())
	}
	st.res.set("setup_s", median(setups))
	st.res.set("p50_ms", finite(median(p50)))
	st.res.set("p90_ms", finite(median(p90)))
	st.res.set("ops_per_s", median(rate))
	st.res.set("makespan_ratio", mean(st.ratios))
	st.res.set("live_heap_mb", liveHeapMB())
	runtime.KeepAlive(lb)
}

// servePlan is what differs between the two serving workloads.
type servePlan struct {
	// inputs returns inputs [from, from+n) of a stream.
	inputs func(stream int64, from, n int) ([]*serveInput, error)
	// check checks a window's replies; it may send more requests.
	check func(lb *loopback, recs []record) []checked
}

// serveWindows is how many windows a serving run is split into; the
// end-to-end figures are medians over them.
const serveWindows = 10

// run sends serveWindows windows of traffic to lb. Each window sends
// cfg.Sequential requests of latencyStream one at a time and then, when
// windowSecs > 0, runs a closed loop for the rest of the window's
// windowSecs seconds (at least a quarter of them). Inputs are made and
// replies checked between the timed loops. With a tracer, each
// sequential request's span tree is recorded.
func (st *serveState) run(lb *loopback, p servePlan, latencyStream int64, windowSecs float64, tr *tracer) error {
	cfg := st.cfg
	closedFrom := 0
	for wi := 0; wi < serveWindows; wi++ {
		var w window
		lo := wi * cfg.Sequential
		ins, err := p.inputs(latencyStream, lo, cfg.Sequential)
		if err != nil {
			return err
		}
		start := time.Now()
		recs := sequential(lb, ins, latencyStream<<32|int64(lo))
		took := time.Since(start).Seconds()
		cks := p.check(lb, recs)
		st.addSequential(&w, recs, cks)
		if tr != nil {
			replayRequests(cfg, tr, lb, recs, cks, st.res)
		}
		if windowSecs > 0 {
			// Enough inputs for a quarter more than the previous window's
			// closed-loop rate or, in the first window, for twice the
			// rate the sequential service times suggest the connections
			// can sustain. Rendering serve-cold's graphs takes about half
			// as long as serving them, so spare inputs cost run time.
			budget := math.Max(windowSecs-took, windowSecs/4)
			k := 64
			if n := len(st.windows); n > 0 && st.windows[n-1].busy > 0 {
				prev := st.windows[n-1]
				k = int(1.25*float64(prev.closed)/prev.busy.Seconds()*budget) + 16
			} else if c := mean(st.client); c > 0 {
				k = int(2*float64(st.conns)/(c/1000)*budget) + 8
			}
			if ins, err = p.inputs(streamClosed, closedFrom, k); err != nil {
				return err
			}
			recs, elapsed := closedLoop(lb, ins, st.conns, streamClosed<<32|int64(closedFrom), time.Now().Add(time.Duration(budget*float64(time.Second))))
			closedFrom += k
			st.addClosed(&w, recs, p.check(lb, recs), elapsed)
		}
		st.windows = append(st.windows, w)
	}
	return nil
}

// ---- the two serving workloads ----

// setUp starts a server and sends it ins one at a time, each a
// result-cache miss: the set-up a serving run times. It returns the
// replies' bodies.
func setUp(cfg config, ins []*serveInput, traced bool, res *result) (*loopback, [][]byte, time.Duration, error) {
	start := time.Now()
	lb, err := startLoopback(cfg, traced)
	if err != nil {
		return nil, nil, 0, err
	}
	recs := make([]record, len(ins))
	for i, in := range ins {
		recs[i] = record{in: in, op: -1 - int64(i), rep: lb.post(lb.url, in, -1-int64(i))}
	}
	took := time.Since(start)
	tally(res, recs, checkMisses(cfg, recs))
	bodies := make([][]byte, len(recs))
	for i := range recs {
		bodies[i] = recs[i].rep.body
	}
	return lb, bodies, took, nil
}

// serve runs a serving workload. Set-up runs Setups times, each on a
// fresh server that must return the same bodies for setUpIns. The
// windows then run on the last server. A traced run sends the
// sequential requests of every window untraced, with no closed loop,
// then the same requests again to a fresh server whose handler is timed.
func serve(cfg config, setUpIns []*serveInput, latencyStream int64, plan func(st *serveState, refs [][]byte) servePlan) (*result, error) {
	st := newServeState(cfg)
	var setups []float64
	var lb *loopback
	var refs [][]byte
	for k := 0; k < cfg.Setups; k++ {
		if lb != nil {
			if err := lb.close(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		var again [][]byte
		var err error
		if lb, again, took, err = setUp(cfg, setUpIns, false, st.res); err != nil {
			return nil, err
		}
		for i := range again {
			if refs != nil && !bytes.Equal(refs[i], again[i]) {
				st.res.fail("set-up request %d: fresh servers returned different bodies", i)
			}
		}
		refs = again
		setups = append(setups, took.Seconds())
	}
	if !cfg.Trace {
		if err := st.run(lb, plan(st, refs), latencyStream, cfg.Seconds/serveWindows, nil); err != nil {
			return nil, err
		}
		st.endToEnd(setups, lb)
		return st.res, lb.close()
	}
	if err := st.run(lb, plan(st, refs), latencyStream, 0, nil); err != nil {
		return nil, err
	}
	if err := lb.close(); err != nil {
		return nil, err
	}
	return st.traced(func(tst *serveState) (lb *loopback, err error) {
		lb, refs, _, err = setUp(cfg, setUpIns, true, tst.res)
		return lb, err
	}, func(lb *loopback, tst *serveState, tr *tracer) error {
		return tst.run(lb, plan(tst, refs), latencyStream, 0, tr)
	})
}

func runServeCold(cfg config) (*result, error) {
	warm, err := renderMany(cfg, streamWarm, 0, cfg.Warmups)
	if err != nil {
		return nil, err
	}
	return serve(cfg, warm, streamLatency, func(st *serveState, _ [][]byte) servePlan {
		return servePlan{
			inputs: func(stream int64, from, n int) ([]*serveInput, error) {
				return renderMany(cfg, stream, from, n)
			},
			check: func(lb *loopback, recs []record) []checked {
				cks := checkMisses(cfg, recs)
				st.sameOnHit(lb, recs, cks)
				return cks
			},
		}
	})
}

// sameOnHit sends the last two requests of a window again. They are
// now result-cache hits, and their bodies must equal the misses'.
func (st *serveState) sameOnHit(lb *loopback, recs []record, cks []checked) {
	for j := max(0, len(recs)-2); j < len(recs); j++ {
		if cks[j].err != nil {
			continue
		}
		st.res.Attempted++
		again := lb.post(lb.url, recs[j].in, -recs[j].op)
		switch {
		case again.err != nil || again.status != http.StatusOK:
			st.res.fail("repeat of request %d failed: %v (status %d)", recs[j].op, again.err, again.status)
		case again.cache != "hit":
			st.res.fail("repeat of request %d was a %q, want a hit", recs[j].op, again.cache)
		case !bytes.Equal(again.body, recs[j].rep.body):
			st.res.fail("repeat of request %d: hit body differs from the miss body", recs[j].op)
		}
	}
}

// ---- serve-hot ----

func runServeHot(cfg config) (*result, error) {
	if cfg.HotKeys <= 0 || cfg.Sequential%cfg.HotKeys != 0 {
		return nil, fmt.Errorf("%d hot keys do not divide the %d sequential requests of a window", cfg.HotKeys, cfg.Sequential)
	}
	keys, err := renderMany(cfg, streamHotKeys, 0, cfg.HotKeys)
	if err != nil {
		return nil, err
	}
	return serve(cfg, keys, streamHotOrder, func(_ *serveState, refs [][]byte) servePlan {
		return servePlan{
			// Every len(keys) consecutive requests of a stream ask for
			// each key once, in a seeded order, so every window's
			// sequential requests ask for every key equally often.
			inputs: func(stream int64, from, n int) ([]*serveInput, error) {
				seq := make([]*serveInput, n)
				for i := range seq {
					j := from + i
					perm := subRand(cfg.Seed, stream<<32|int64(j/len(keys))).Perm(len(keys))
					seq[i] = keys[perm[j%len(keys)]]
				}
				return seq, nil
			},
			check: func(_ *loopback, recs []record) []checked { return checkHot(cfg, keys, refs, recs) },
		}
	})
}

// checkHot checks hot replies: each must be a hit whose body equals the
// body the key's miss returned in set-up (which was fully checked).
func checkHot(cfg config, keys []*serveInput, refs [][]byte, recs []record) []checked {
	idx := map[*serveInput]int{}
	for i, k := range keys {
		idx[k] = i
	}
	cks := make([]checked, len(recs))
	parsed := make([]checked, len(keys))
	for i, k := range keys {
		parsed[i].sched, parsed[i].makespan, parsed[i].err = checkResponse(k.graph, cfg.Procs, refs[i])
	}
	for i := range recs {
		r := &recs[i]
		k := idx[r.in]
		switch {
		case r.rep.err != nil:
			cks[i].err = r.rep.err
		case r.rep.status != http.StatusOK:
			cks[i].err = fmt.Errorf("status %d: %s", r.rep.status, bytes.TrimSpace(r.rep.body))
		case r.rep.cache != "hit":
			cks[i].err = fmt.Errorf("cache label %q, want hit", r.rep.cache)
		case r.rep.engineMS <= 0:
			cks[i].err = fmt.Errorf("no engine elapsed time in the reply")
		case !bytes.Equal(r.rep.body, refs[k]):
			cks[i].err = fmt.Errorf("hit body differs from the miss body of key %d", k)
		default:
			cks[i] = parsed[k]
		}
	}
	return cks
}

// ---- traced serving runs ----

// traced finishes a --trace 1 serving run. The untraced sequential
// requests have already run on st. start sets up a fresh server whose
// handler is timed, and loop sends the same requests through it with
// spans.
// Per-layer metrics come from the traced half; trace.overhead_ms
// compares the mean client time of the two halves.
func (st *serveState) traced(start func(tst *serveState) (*loopback, error), loop func(lb *loopback, tst *serveState, tr *tracer) error) (*result, error) {
	tr := newTracer()
	tst := newServeState(st.cfg)
	tst.res = st.res
	lb, err := start(tst)
	if err != nil {
		return nil, err
	}
	before := readCounters(lb.srv.Metrics())
	if err := loop(lb, tst, tr); err != nil {
		lb.close()
		return nil, err
	}
	setCounters(tst.res, before, readCounters(lb.srv.Metrics()))
	if err := lb.close(); err != nil {
		return nil, err
	}
	self, _, _ := tr.selfTimes()
	n := float64(len(tst.client))
	layers := []string{"http.transport", "server.handler", "batch.engine", "dag.read_json", "plan.graph_key",
		"dag.validate", "plan.compile", "fast.schedule", "sched.validate", "sched.clone"}
	for _, span := range layers {
		tst.res.set(span+"_ms", self[span]/n)
	}
	tst.res.set("trace.overhead_ms", mean(tst.client)-mean(st.client))
	return tst.res, finishTrace(st.cfg, tr, tst.res, layers)
}

// serverCounters are the registry counters the traced serving runs
// report.
var serverCounters = []string{
	"batch.completed", "batch.failed", "batch.cache_hits", "batch.coalesced",
	"plan.compile_hits", "plan.compile_misses", "server.requests",
	"server.rejected_quota", "server.rejected_queue_full", "server.rejected_invalid",
	"server.rejected_oversized", "server.rejected_draining",
}

func readCounters(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, name := range serverCounters {
		out[name] = float64(reg.Counter(name).Value())
	}
	return out
}

// setCounters reports the counters accumulated over the traced
// requests, each with its base.
func setCounters(res *result, before, after map[string]float64) {
	c := func(name string) float64 { return after[name] - before[name] }
	reqs := c("batch.completed") + c("batch.failed")
	res.set("batch.requests", reqs)
	res.set("batch.cache_hit_ratio", ratio(c("batch.cache_hits"), reqs))
	res.set("batch.coalesced", c("batch.coalesced"))
	lookups := c("plan.compile_hits") + c("plan.compile_misses")
	res.set("plan.lookups", lookups)
	res.set("plan.compile_hit_ratio", ratio(c("plan.compile_hits"), lookups))
	res.set("server.requests", c("server.requests"))
	res.set("server.rejected", c("server.rejected_quota")+c("server.rejected_queue_full")+
		c("server.rejected_invalid")+c("server.rejected_oversized")+c("server.rejected_draining"))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replayRequests records each traced request's span tree. The root is
// the client's request, timed live, and its time outside the layers
// below is left unaccounted. The handler span was timed live and the
// engine span comes from the X-Fastsched-Elapsed-Ms header. The
// transport span is replayed: the request's body and the response's
// body are exchanged again with an echo server, whose handler does no
// other work, and the client's time outside that handler is the
// transport's. The calls inside the handler and the engine are replayed on
// the request's own input, through the functions the server and the
// batch engine call: on the handler side dag.ReadJSON, plan.GraphKey
// and (when the plan cache missed) dag.Graph.Validate; on the engine
// side, for a miss, plan.CompileKeyed, FAST's FindCompiled and
// sched.Validate, and for every request the one sched.Schedule.Clone
// the engine makes. A replayed schedule must equal the served one.
func replayRequests(cfg config, tr *tracer, lb *loopback, recs []record, cks []checked, res *result) {
	reg := obs.NewRegistry()
	for i := range recs {
		r, c := &recs[i], &cks[i]
		if c.err != nil {
			continue
		}
		h, ok := lb.spans.get(r.op)
		if !ok {
			res.fail("request %d: no handler span", r.op)
			continue
		}
		transport, err := lb.transport(r.in, r.op, r.rep.body)
		if err != nil {
			res.fail("request %d: replayed transport: %v", r.op, err)
			continue
		}
		root := tr.add("client.request", r.op, -1, r.rep.start, r.rep.end, "live")
		tr.add("http.transport", r.op, root, r.rep.start, r.rep.start.Add(transport), "replay")
		hid := tr.add("server.handler", r.op, root, h[0], h[1], "live")
		eng := tr.add("batch.engine", r.op, hid, h[0], h[0].Add(time.Duration(r.rep.engineMS*float64(time.Millisecond))), "header")

		var g *dag.Graph
		tr.timed("dag.read_json", r.op, hid, "replay", func() { g, _, err = dag.ReadJSON(bytes.NewReader(r.in.graphJSON)) })
		if err != nil {
			res.fail("request %d: replayed ReadJSON: %v", r.op, err)
			continue
		}
		var key plan.Key
		tr.timed("plan.graph_key", r.op, hid, "replay", func() { key = plan.GraphKey(g) })
		s := c.sched
		if r.rep.cache == "miss" {
			if err := replayMiss(tr, r.op, hid, eng, g, key, r.in.seed, cfg.Procs, c.makespan, reg, &s); err != nil {
				res.fail("request %d: replay: %v", r.op, err)
				continue
			}
		}
		tr.timed("sched.clone", r.op, eng, "replay", func() { _ = s.Clone() })
	}
	steps := float64(reg.Counter("fast.search.steps_tried").Value())
	res.set("fast.steps_tried", steps)
	res.set("fast.accept_ratio", ratio(float64(reg.Counter("fast.search.accepted").Value()), steps))
}

// replayMiss replays the cold half of a request and checks that the
// schedule it produces has the served makespan.
func replayMiss(tr *tracer, op int64, hid, eng int32, g *dag.Graph, key plan.Key, seed int64, procs int,
	served float64, reg *obs.Registry, out **sched.Schedule) error {
	var err error
	tr.timed("dag.validate", op, hid, "replay", func() { err = g.Validate() })
	if err != nil {
		return err
	}
	var cg *plan.CompiledGraph
	tr.timed("plan.compile", op, eng, "replay", func() { cg, err = plan.CompileKeyed(g, key) })
	if err != nil {
		return err
	}
	s, err := fastScheduler(seed, nil)
	if err != nil {
		return err
	}
	tr.timed("fast.schedule", op, eng, "replay", func() { *out, err = s.FindCompiled(context.Background(), cg, procs) })
	if err != nil {
		return err
	}
	// The search counters come from a second, untimed run, so the timed
	// one runs uninstrumented as the engine's does.
	if counted, err := fastScheduler(seed, reg); err == nil {
		_, _ = counted.FindCompiled(context.Background(), cg, procs) // same inputs; the timed run's errors were checked
	}
	tr.timed("sched.validate", op, eng, "replay", func() { err = sched.Validate(g, *out) })
	if err != nil {
		return err
	}
	if got := (*out).Length(); got != served {
		return fmt.Errorf("replayed makespan %v, served %v", got, served)
	}
	return nil
}

// compiledFinder is the entry point the batch engine and the online
// engine use for the FAST family.
type compiledFinder interface {
	FindCompiled(ctx context.Context, cg *plan.CompiledGraph, procs int) (*sched.Schedule, error)
	Instrument(sink obs.Sink, traj *obs.Trajectory)
}

// fastScheduler builds the registry's "fast" scheduler, as the batch
// engine does, reporting its search counters to reg (none when nil).
func fastScheduler(seed int64, reg *obs.Registry) (compiledFinder, error) {
	s, err := casch.NewScheduler("fast", seed)
	if err != nil {
		return nil, err
	}
	f, ok := s.(compiledFinder)
	if !ok {
		return nil, fmt.Errorf("registry scheduler %q has no FindCompiled", "fast")
	}
	if reg != nil {
		f.Instrument(reg, nil)
	}
	return f, nil
}
