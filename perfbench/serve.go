package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"awra/aw"
	"awra/internal/gen"
	"awra/internal/obs"
	"awra/internal/serve"
)

const (
	// netRecords is the served collection's size: small inputs, where
	// fixed per-query costs dominate.
	netRecords = 50_000
	// openShare is the share of the window spent in the open loop; the
	// closed loop that measures sat_qps takes the rest.
	openShare = 0.8
	// lateFlagMs flags a run whose generator dispatched some request
	// this much later than it was due.
	lateFlagMs = 50
	// probeSample is how many of the run's workflows the traced run
	// splits into layers.
	probeSample = 6
	// serveMemBudget is awserved's default plan budget.
	serveMemBudget = 64 << 20
)

// serveConfig mirrors awserved's flag defaults: auto engine, a 64 MB
// plan budget, 8 slots with a queue of 16 and a 1 s queue wait, the
// result cache on at 64 MB / 256 entries, sharing off, P=1 and a 30 s
// timeout.
func serveConfig(coll, tempDir string, rec *obs.Recorder, cacheOff bool) serve.Config {
	return serve.Config{
		Collections:    map[string]string{"net": coll},
		TempDir:        tempDir,
		Gate:           serve.GateConfig{MaxConcurrent: 8, QueueDepth: 16, QueueWait: time.Second},
		Retry:          serve.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond},
		DefaultTimeout: 30 * time.Second,
		DefaultEngine:  aw.EngineAuto,
		MemoryBudget:   serveMemBudget,
		Parallelism:    1,
		Cache:          serve.CacheConfig{Disabled: cacheOff, MaxBytes: 64 << 20, MaxEntries: 256},
		Share:          serve.ShareConfig{MaxBatch: 8},
		DrainTimeout:   10 * time.Second,
		Recorder:       rec,
	}
}

// request is one query sent to the server and what came back.
type request struct {
	id     string
	wf     string
	due    time.Time // open loop only
	sent   time.Time
	done   time.Time
	late   time.Duration
	status int
	body   []byte
	resp   serve.QueryResponse
	err    error
	traced bool
	wrong  bool
}

func (r *request) ok() bool {
	return r.err == nil && r.status == http.StatusOK && r.resp.Outcome == "ok"
}

// latencyMs is timed from when the request was due (open loop) or
// sent (closed loop); a failed request never meets any latency limit.
func (r *request) latencyMs() float64 {
	if !r.ok() || r.wrong {
		return math.Inf(1)
	}
	from := r.due
	if from.IsZero() {
		from = r.sent
	}
	return float64(r.done.Sub(from)) / float64(time.Millisecond)
}

// workflowSource yields distinct workflows, so whole-query repeats
// never happen and every request misses the result cache. The
// templates take turns, and each cycles through its granularities, so
// every seed sends the same mix of query shapes.
type workflowSource struct {
	mu   sync.Mutex
	ts   []template
	rng  *rand.Rand
	seen map[string]bool
	n    int
}

func newWorkflowSource(ts []template, seed int64) *workflowSource {
	return &workflowSource{ts: ts, rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
}

func (s *workflowSource) next() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for tries := 0; ; tries++ {
		// A shape whose variants run out hands its turn on.
		k := s.n + tries/1000
		w := s.ts[k%len(s.ts)].variant(s.rng, k/len(s.ts))
		if !s.seen[w] {
			s.seen[w] = true
			s.n++
			return w
		}
	}
}

// openSchedule is the open loop's Poisson arrival schedule: offsets
// from the phase start and the workflow of each arrival. The same seed
// gives the same schedule.
func openSchedule(seed int64, rate float64, d time.Duration, src *workflowSource) ([]time.Duration, []string) {
	rng := rand.New(rand.NewSource(seed))
	var dues []time.Duration
	var wfs []string
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return dues, wfs
		}
		dues = append(dues, due)
		wfs = append(wfs, src.next())
	}
}

// serveRun is one serve workload run.
type serveRun struct {
	cfg    config
	tr     *tracer
	coll   string // the served collection file
	rec    *obs.Recorder
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	seq    atomic.Int64
}

func runServe(cfg config, tr *tracer) (*outcome, error) {
	ts, err := loadTemplates(cfg.root)
	if err != nil {
		return nil, err
	}
	s := &serveRun{cfg: cfg, tr: tr, coll: filepath.Join(cfg.work, "net.rec")}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if err := s.stop(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := s.setup(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.stop()
	fi, err := os.Stat(s.coll)
	if err != nil {
		return nil, err
	}

	src := newWorkflowSource(ts, cfg.seed)
	window := time.Duration(cfg.seconds * float64(time.Second))
	openDur := time.Duration(float64(window) * openShare)
	dues, wfs := openSchedule(cfg.seed, cfg.qps, openDur, src)

	runtime.GC()
	rt0 := readRuntime()
	open := s.openLoop(dues, wfs)
	rt1 := readRuntime()
	runtime.GC()
	closed, closedDur := s.closedLoop(src, window-openDur)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	cache := s.srv.CacheSnapshot()
	srvSnap := s.rec.Snapshot()

	// Checks, outside the measured window.
	all := append(append([]*request(nil), open...), closed...)
	mismatches, err := s.check(all)
	if err != nil {
		return nil, err
	}
	failed := 0
	for _, r := range all {
		if !r.ok() || r.wrong {
			failed++
		}
	}

	var lat []float64
	lateMax := 0.0
	engines := map[string][]float64{}
	for _, r := range open {
		if r.ok() {
			engines[r.resp.Engine] = append(engines[r.resp.Engine], float64(r.resp.DurationUs)/1000)
		}
		if !r.traced {
			lat = append(lat, r.latencyMs())
		}
		lateMax = max(lateMax, float64(r.late)/float64(time.Millisecond))
	}
	okClosed := 0
	for _, r := range closed {
		if r.ok() && !r.wrong {
			okClosed++
		}
	}
	behind := lateMax > lateFlagMs
	if behind {
		fmt.Fprintf(os.Stderr, "perfbench: generator fell behind: a request went out %.1f ms late\n", lateMax)
	}
	tl := tailOf(lat)
	o := &outcome{
		attempted: len(all),
		failed:    failed,
		correct:   mismatches == 0,
		metrics: map[string]float64{
			"lat_p50_ms":  median(lat),
			"lat_tail_ms": tl.Value,
			"sat_qps":     float64(okClosed) / closedDur.Seconds(),
			"peak_rss_mb": rss,
			"setup_s":     median(setups),
			"gen.late_ms": lateMax,
		},
		info: map[string]any{
			"input":            map[string]any{"records": int64(float64(netRecords) * s.cfg.scale), "bytes": fi.Size()},
			"rate_qps":         cfg.qps,
			"open_requests":    len(open),
			"closed_requests":  len(closed),
			"mismatches":       mismatches,
			"lat_tail":         tl,
			"gen_late_ms":      lateMax,
			"generator_behind": behind,
			"setup_s":          setups,
			"cache":            map[string]int64{"hits": cache.Hits, "misses": cache.Misses, "evictions": cache.Evictions},
			"engines":          engineInfo(engines),
		},
	}
	if tr != nil {
		if err := s.traceMetrics(o, open, rt0, rt1, cache, srvSnap); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// setup writes the collection and starts a server on a loopback
// listener.
func (s *serveRun) setup() error {
	n := int64(float64(netRecords) * s.cfg.scale)
	if _, _, err := gen.NetLog(s.coll, n, gen.NetConfig{Seed: s.cfg.seed}); err != nil {
		return fmt.Errorf("generate net log: %w", err)
	}
	s.rec = obs.New()
	srv, err := serve.New(serveConfig(s.coll, s.cfg.work, s.rec, false))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = srv
	s.hs = &http.Server{Handler: srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.url = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     runtime.NumCPU(),
		MaxIdleConnsPerHost: runtime.NumCPU(),
	}}
	resp, err := s.client.Get(s.url + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// stop drains the server and closes its listener, waiting for both.
func (s *serveRun) stop() error {
	if s.srv == nil {
		return nil
	}
	drainErr := s.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutErr := s.hs.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) && shutErr == nil {
		shutErr = err
	}
	s.client.CloseIdleConnections()
	s.srv = nil
	return errors.Join(drainErr, shutErr)
}

// send posts one query and reads the whole response.
func (s *serveRun) send(r *request) {
	r.id = fmt.Sprintf("pb-%d", s.seq.Add(1))
	if r.traced {
		sp := s.tr.start("client.request", 0, r.id)
		defer s.tr.end(sp)
	}
	body, err := json.Marshal(serve.QueryRequest{Workflow: r.wf, Collection: "net", RequestID: r.id})
	if err != nil {
		r.err = err
		return
	}
	r.sent = time.Now()
	resp, err := s.client.Post(s.url+"/query", "application/json", bytes.NewReader(body))
	if err == nil {
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		r.status = resp.StatusCode
	}
	r.done = time.Now()
	if err != nil {
		r.err = err
		return
	}
	r.err = json.Unmarshal(r.body, &r.resp)
}

// openLoop sends each request when it is due, on at most nproc
// connections; a request due while all are busy waits, and that wait
// counts in its latency.
func (s *serveRun) openLoop(dues []time.Duration, wfs []string) []*request {
	reqs := make([]*request, len(dues))
	// Sized to the schedule, so the generator never blocks on a send.
	queue := make(chan *request, len(dues))
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range queue {
				s.send(r)
			}
		}()
	}
	start := time.Now()
	for i, d := range dues {
		r := &request{wf: wfs[i], due: start.Add(d), traced: s.tr != nil && i%2 == 1}
		time.Sleep(time.Until(r.due))
		r.late = time.Since(r.due)
		reqs[i] = r
		queue <- r
	}
	close(queue)
	wg.Wait()
	return reqs
}

// closedLoop runs nproc clients back to back for d and returns what
// they sent and the time until the last answer.
func (s *serveRun) closedLoop(src *workflowSource, d time.Duration) ([]*request, time.Duration) {
	var (
		mu   sync.Mutex
		reqs []*request
		wg   sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(d)
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				r := &request{wf: src.next()}
				s.send(r)
				mu.Lock()
				reqs = append(reqs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return reqs, time.Since(start)
}

// check compares every answered request with the answer of a
// cache-disabled oracle server over the same collection, and returns
// how many differ.
func (s *serveRun) check(reqs []*request) (int, error) {
	oracle, err := serve.New(serveConfig(s.coll, s.cfg.work, nil, true))
	if err != nil {
		return 0, err
	}
	defer oracle.Drain()
	// The oracle runs are independent; nproc of them at a time.
	var (
		mu      sync.Mutex
		answers = make(map[string]map[string][]serve.ValueAt, len(reqs))
		errs    []error
		wg      sync.WaitGroup
		jobs    = make(chan string)
	)
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for wf := range jobs {
				m, err := oracleAnswer(oracle, wf)
				mu.Lock()
				answers[wf] = m
				if err != nil {
					errs = append(errs, err)
				}
				mu.Unlock()
			}
		}()
	}
	for _, r := range reqs {
		if r.ok() {
			jobs <- r.wf
		}
	}
	close(jobs)
	wg.Wait()
	if len(errs) > 0 {
		return 0, errs[0]
	}
	wrong := 0
	for _, r := range reqs {
		if r.ok() && !reflect.DeepEqual(r.resp.Measures, answers[r.wf]) {
			r.wrong = true
			wrong++
		}
	}
	return wrong, nil
}

// oracleAnswer asks the cache-disabled oracle server for a workflow's
// answer.
func oracleAnswer(oracle *serve.Server, wf string) (map[string][]serve.ValueAt, error) {
	body, err := json.Marshal(serve.QueryRequest{Workflow: wf, Collection: "net"})
	if err != nil {
		return nil, err
	}
	rr := httptest.NewRecorder()
	oracle.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	var resp serve.QueryResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		return nil, fmt.Errorf("oracle answer: %w", err)
	}
	if rr.Code != http.StatusOK || resp.Outcome != "ok" {
		return nil, fmt.Errorf("oracle failed (%d): %s", rr.Code, resp.Error)
	}
	return resp.Measures, nil
}

// engineInfo summarizes the executed open-loop requests by the engine
// the auto decision picked: count and median server time.
func engineInfo(durs map[string][]float64) map[string]any {
	out := map[string]any{}
	for e, d := range durs {
		out[e] = map[string]any{"requests": len(d), "median_ms": median(d)}
	}
	return out
}
