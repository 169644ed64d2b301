package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"memsynth/internal/server"
	"memsynth/internal/store"
	"memsynth/internal/synth"
)

// serveFixture is an in-process memsynthd: a fresh store, the server's
// handler on a loopback listener, and one keep-alive client per
// connection the load may use.
type serveFixture struct {
	dir     string
	st      *store.Store
	srv     *server.Server
	hs      *http.Server
	url     string
	clients []*http.Client
	served  chan error
}

// startServe opens a fresh store under dir and serves it on 127.0.0.1.
func startServe(dir string, clients int) (*serveFixture, error) {
	st, err := store.Open(dir, 0) // 0 selects the default LRU size
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &serveFixture{
		dir:    dir,
		st:     st,
		srv:    server.New(server.Config{Store: st}),
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	f.hs = &http.Server{Handler: f.srv.Handler()}
	go func() { f.served <- f.hs.Serve(ln) }()
	for i := 0; i < clients; i++ {
		f.clients = append(f.clients, &http.Client{
			Timeout: time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return f, nil
}

// close stops the server, waits for its goroutines, and removes the store.
func (f *serveFixture) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := f.hs.Shutdown(ctx)
	if serr := <-f.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := f.srv.Drain(ctx); err == nil {
		err = derr
	}
	f.srv.Close()
	for _, c := range f.clients {
		c.CloseIdleConnections()
	}
	if rerr := os.RemoveAll(f.dir); err == nil {
		err = rerr
	}
	return err
}

// do sends one request and returns the status and the whole body.
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

// synthBody is the POST /v1/synthesize body for a request.
func synthBody(model string, opts synth.Options, format string) []byte {
	b, err := json.Marshal(server.SynthesizeRequest{
		Model:          model,
		RequestOptions: store.FromSynthOptions(opts),
		Format:         format,
	})
	if err != nil {
		panic(err) // a plain struct always marshals
	}
	return b
}

// hitTarget is one cache-hit request and the body it must return.
type hitTarget struct {
	body []byte
	sum  [sha256.Size]byte
}

// coldTarget is one cold-write request and the summary it must return.
type coldTarget struct {
	req    engineRequest
	body   []byte
	digest string
	mu     sync.Mutex // one cold write per digest at a time
}

func (f *serveFixture) hit(c *http.Client, h *hitTarget) error {
	code, b, err := do(c, http.MethodPost, f.url+"/v1/synthesize", h.body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("hit: status %d: %s", code, b)
	}
	if sha256.Sum256(b) != h.sum {
		return fmt.Errorf("hit: litmus body differs from the one captured at set-up")
	}
	return nil
}

// synthesizeJSON posts a JSON-format synthesize request and checks the
// summary against the request's pinned reference.
func (f *serveFixture) synthesizeJSON(c *http.Client, ct *coldTarget) (*server.SynthesizeResponse, error) {
	code, b, err := do(c, http.MethodPost, f.url+"/v1/synthesize", ct.body)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", ct.req, code, b)
	}
	var resp server.SynthesizeResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		return nil, fmt.Errorf("%s: %w", ct.req, err)
	}
	ref := ct.req.Ref
	if resp.Digest != ref.Digest {
		return nil, fmt.Errorf("%s: digest %s, want %s", ct.req, resp.Digest, ref.Digest)
	}
	axioms := make(map[string]int, len(resp.Suites))
	for name, n := range resp.Suites {
		if name != store.UnionSuite {
			axioms[name] = n
		}
	}
	if resp.Suites[store.UnionSuite] != ref.Union {
		return nil, fmt.Errorf("%s: union has %d entries, want %d", ct.req, resp.Suites[store.UnionSuite], ref.Union)
	}
	if err := checkPerAxiom(axioms, ref); err != nil {
		return nil, fmt.Errorf("%s: %w", ct.req, err)
	}
	if st := resp.Stats; st.Programs != ref.Programs || st.Executions+st.ExecutionsFast != ref.Candidates {
		return nil, fmt.Errorf("%s: %d programs and %d candidates, want %d and %d",
			ct.req, st.Programs, st.Executions+st.ExecutionsFast, ref.Programs, ref.Candidates)
	}
	return &resp, nil
}

// cold evicts the target's suite and synthesizes it again.
func (f *serveFixture) cold(c *http.Client, ct *coldTarget) error {
	code, b, err := do(c, http.MethodDelete, f.url+"/v1/suites/"+ct.digest, nil)
	if err != nil {
		return err
	}
	if code != http.StatusNoContent {
		return fmt.Errorf("%s: delete: status %d: %s", ct.req, code, b)
	}
	resp, err := f.synthesizeJSON(c, ct)
	if err != nil {
		return err
	}
	if resp.Cached {
		return fmt.Errorf("%s: served from cache right after its eviction", ct.req)
	}
	return nil
}

// serveMix is serve-mix's set-up state.
type serveMix struct {
	fx   *serveFixture
	hits []*hitTarget
	cold []*coldTarget
}

// setupServe starts a fixture and synthesizes both request pools through
// it, capturing each hit's litmus body and checking each cold request.
func setupServe(dir string) (*serveMix, error) {
	fx, err := startServe(dir, min(serveClients, runtime.NumCPU()))
	if err != nil {
		return nil, err
	}
	sm := &serveMix{fx: fx}
	c := fx.clients[0]
	for _, r := range hitPool() {
		h := &hitTarget{body: synthBody(r.Model, r.Opts, "litmus")}
		code, b, err := do(c, http.MethodPost, fx.url+"/v1/synthesize", h.body)
		if err == nil && (code != http.StatusOK || len(b) == 0) {
			err = fmt.Errorf("%s: set-up synthesis: status %d, %d-byte body", r, code, len(b))
		}
		if err != nil {
			fx.close()
			return nil, err
		}
		h.sum = sha256.Sum256(b)
		sm.hits = append(sm.hits, h)
	}
	for _, r := range coldPool {
		ct := &coldTarget{req: r, body: synthBody(r.Model, r.Opts, ""), digest: r.Ref.Digest}
		if _, err := fx.synthesizeJSON(c, ct); err != nil {
			fx.close()
			return nil, err
		}
		sm.cold = append(sm.cold, ct)
	}
	return sm, nil
}

// sliceLen is the length of the load slices. The figures are medians
// over slices, each scaled by the references around it, so a burst of
// interference on the host spoils a slice or two instead of the whole
// figure.
const sliceLen = time.Second

// loadStats is what the closed-loop load observed.
type loadStats struct {
	hitMS, coldMS []float64
	attempted     int
	errs          []error
	// Per slice: host factor, requests finished per second (scaled to
	// the nominal host, and raw), and, raw, process CPU per request and
	// median hit and cold-write latencies in ms.
	factors, rate, rawRate    []float64
	cpuPerOp, hitP50, coldP50 []float64
	// Cold-write latencies, each scaled by its slice's host factor.
	coldAdj []float64
	rssMB   []float64
}

// request is one scheduled request: a hit or a cold write.
type request struct {
	hit  *hitTarget
	cold *coldTarget
}

// block returns one schedule block in a seeded order.
func (sm *serveMix) block(rng *rand.Rand) []request {
	b := make([]request, 0, len(sm.cold)*(1+hitsPerCold))
	for _, ct := range sm.cold {
		b = append(b, request{cold: ct})
		for i := 0; i < hitsPerCold; i++ {
			b = append(b, request{hit: sm.hits[rng.IntN(len(sm.hits))]})
		}
	}
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// loadClient is one closed-loop client: its connection, its seeded
// schedule, and what it observed.
type loadClient struct {
	c             *http.Client
	rng           *rand.Rand
	queue         []request
	hitMS, coldMS []float64
	errs          []error
}

// runUntil issues the client's scheduled requests one after another until
// deadline.
func (cl *loadClient) runUntil(sm *serveMix, deadline time.Time) {
	for time.Now().Before(deadline) {
		if len(cl.queue) == 0 {
			cl.queue = sm.block(cl.rng)
		}
		r := cl.queue[0]
		cl.queue = cl.queue[1:]
		var err error
		if r.hit != nil {
			t0 := time.Now()
			err = sm.fx.hit(cl.c, r.hit)
			cl.hitMS = append(cl.hitMS, ms(time.Since(t0)))
		} else {
			r.cold.mu.Lock()
			t0 := time.Now()
			err = sm.fx.cold(cl.c, r.cold)
			cl.coldMS = append(cl.coldMS, ms(time.Since(t0)))
			r.cold.mu.Unlock()
		}
		if err != nil {
			cl.errs = append(cl.errs, err)
		}
	}
}

// load runs one closed-loop client per fixture connection for window, in
// slices with a reference run between each two (the server idle).
// Client i draws its schedule from a PCG stream keyed by (seed, i).
func (sm *serveMix) load(seed uint64, window time.Duration) loadStats {
	clients := make([]*loadClient, len(sm.fx.clients))
	for i, c := range sm.fx.clients {
		clients[i] = &loadClient{c: c, rng: rand.New(rand.NewPCG(seed, uint64(i)))}
	}
	var ls loadStats
	rss := startSampler()
	before := calibrate(rss)
	for s := max(1, int(window/sliceLen)); s > 0; s-- {
		done := 0
		hits0 := make([]int, len(clients))
		colds0 := make([]int, len(clients))
		for i, cl := range clients {
			done -= len(cl.hitMS) + len(cl.coldMS)
			hits0[i], colds0[i] = len(cl.hitMS), len(cl.coldMS)
		}
		t0, c0 := time.Now(), cpuTime()
		deadline := t0.Add(min(window, sliceLen))
		var wg sync.WaitGroup
		for _, cl := range clients {
			wg.Add(1)
			go func(cl *loadClient) {
				defer wg.Done()
				cl.runUntil(sm, deadline)
			}(cl)
		}
		wg.Wait()
		secs, cpu := time.Since(t0).Seconds(), cpuTime()-c0
		after := calibrate(rss)
		k := hostFactor(before, after)
		before = after
		var hits, colds []float64
		for i, cl := range clients {
			done += len(cl.hitMS) + len(cl.coldMS)
			hits = append(hits, cl.hitMS[hits0[i]:]...)
			colds = append(colds, cl.coldMS[colds0[i]:]...)
		}
		if done == 0 {
			continue
		}
		ls.factors = append(ls.factors, k)
		ls.rawRate = append(ls.rawRate, float64(done)/secs)
		ls.rate = append(ls.rate, float64(done)/secs/k)
		ls.cpuPerOp = append(ls.cpuPerOp, ms(cpu)/float64(done))
		if len(hits) > 0 {
			ls.hitP50 = append(ls.hitP50, median(hits))
		}
		if len(colds) > 0 {
			ls.coldP50 = append(ls.coldP50, median(colds))
		}
		for _, c := range colds {
			ls.coldAdj = append(ls.coldAdj, c*k)
		}
	}
	ls.rssMB = rss.close()
	for _, cl := range clients {
		ls.hitMS = append(ls.hitMS, cl.hitMS...)
		ls.coldMS = append(ls.coldMS, cl.coldMS...)
		ls.errs = append(ls.errs, cl.errs...)
	}
	ls.attempted = len(ls.hitMS) + len(ls.coldMS)
	return ls
}

// setupServeReps repeats serve-mix's set-up, each time on a fresh store,
// and keeps the last one.
func setupServeReps(tmp string, out *runOut) (*serveMix, []float64, float64) {
	var sm *serveMix
	i := 0
	times, speed := timedSetup(func() error {
		if sm != nil {
			if err := sm.fx.close(); err != nil {
				return err
			}
			sm = nil
		}
		var err error
		sm, err = setupServe(fmt.Sprintf("%s/store-%d", tmp, i))
		i++
		return err
	}, out)
	return sm, times, speed
}

// runServe measures serve-mix untraced.
func runServe(seed uint64, window time.Duration, tmp string, out *runOut) {
	sm, setup, speed := setupServeReps(tmp, out)
	if sm == nil {
		return
	}
	defer func() { out.check(sm.fx.close()) }()

	ls := sm.load(seed, window)
	out.record(ls.attempted, ls.errs)
	out.set("setup_s", median(setup)*speed, len(setup))
	out.set("synth_p50_ms", median(ls.coldAdj), len(ls.coldAdj))
	out.set("ops_per_s", median(ls.rate), len(ls.rate))
	out.set("cpu_per_op_ms", median(ls.cpuPerOp), len(ls.cpuPerOp))
	out.setRSS(ls.rssMB)
	out.set("host_factor", median(ls.factors), len(ls.factors))
	out.set("hit_p50_ms", median(ls.hitMS), len(ls.hitMS))
	out.set("req_per_s", median(ls.rawRate), len(ls.rawRate))
	out.setTail("hit_p99_ms", tailPercentile(ls.hitMS, 99))
	out.setTail("cold_p50_ms", tailPercentile(ls.coldMS, 50))
	out.setTail("cold_p90_ms", tailPercentile(ls.coldMS, 90))
	out.detail["store_cache"] = sm.fx.st.Counters()
	out.detail["slices"] = map[string][]float64{"host_factor": ls.factors, "req_per_s": ls.rawRate,
		"cpu_per_op_ms": ls.cpuPerOp, "hit_p50_ms": ls.hitP50, "cold_p50_ms": ls.coldP50}
}
