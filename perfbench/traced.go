package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"memsynth/internal/store"
	"memsynth/internal/synth"
)

// hitReps is how many LRU reads and HTTP hits a store pass times per
// suite.
const hitReps = 32

// servePasses is how many traced passes over the cold pool a serve-mix
// traced run makes after its load.
const servePasses = 5

// storeSamples are per-call store and server timings in nanoseconds.
type storeSamples struct {
	encode, put, disk, lru, hit []float64
}

// storePass delivers one synthesized suite through the store and the
// server the way memsynthd does after a cold run, timing each exported
// call from outside: store.Encode, Store.PutStored, a Get on a store
// instance with a cold LRU (a disk load), then Gets served by the LRU and
// HTTP cache hits, whose bodies must equal the encoded union text.
func (f *serveFixture) storePass(res *synth.Result, sp *storeSamples) error {
	t0 := time.Now()
	ss, err := store.Encode(res)
	sp.encode = append(sp.encode, float64(time.Since(t0)))
	if err != nil {
		return err
	}
	digest := ss.Manifest.Digest
	if err := f.st.Evict(digest); err != nil && !errors.Is(err, store.ErrNotFound) {
		return err
	}
	t0 = time.Now()
	_, err = f.st.PutStored(ss)
	sp.put = append(sp.put, float64(time.Since(t0)))
	if err != nil {
		return err
	}
	coldLRU, err := store.Open(f.dir, 0)
	if err != nil {
		return err
	}
	t0 = time.Now()
	_, err = coldLRU.Get(digest)
	sp.disk = append(sp.disk, float64(time.Since(t0)))
	if err != nil {
		return err
	}

	body := synthBody(res.Model, res.Options, "litmus")
	want := ss.Texts[store.UnionSuite]
	for i := 0; i < hitReps; i++ {
		t0 = time.Now()
		_, err := f.st.Get(digest)
		sp.lru = append(sp.lru, float64(time.Since(t0)))
		if err != nil {
			return err
		}
		t0 = time.Now()
		code, b, err := do(f.clients[0], http.MethodPost, f.url+"/v1/synthesize", body)
		sp.hit = append(sp.hit, float64(time.Since(t0)))
		if err != nil {
			return err
		}
		if code != http.StatusOK || string(b) != want {
			return fmt.Errorf("%s: cache hit returned status %d and a body unlike the stored suite", res.Model, code)
		}
	}
	return nil
}

// serverCounters reads synth_runs and coalesced_requests from /metrics.
func (f *serveFixture) serverCounters() (synthRuns, coalesced float64, err error) {
	code, b, err := do(f.clients[0], http.MethodGet, f.url+"/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	if code != http.StatusOK {
		return 0, 0, fmt.Errorf("/metrics: status %d", code)
	}
	var m struct {
		SynthRuns float64 `json:"synth_runs"`
		Coalesced float64 `json:"coalesced_requests"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return 0, 0, fmt.Errorf("/metrics: %w", err)
	}
	return m.SynthRuns, m.Coalesced, nil
}

// lruHitRatio is the share of store lookups between two counter snapshots
// that the LRU served.
func lruHitRatio(before, after store.Counters) float64 {
	hits := after.CacheHits - before.CacheHits
	misses := after.CacheMisses - before.CacheMisses
	return ratio(float64(hits), float64(hits+misses))
}

// setLayerMetrics reports the per-pass engine figures (median over
// passes) and the store and server figures.
func setLayerMetrics(out *runOut, passes []map[string]float64, sp storeSamples, lruRatio, synthRuns, coalesced float64) {
	if len(passes) == 0 {
		return
	}
	for name := range passes[0] {
		vals := make([]float64, len(passes))
		for i, p := range passes {
			vals[i] = p[name]
		}
		out.set(name, median(vals), len(vals))
	}
	out.set("store.encode.ns", median(sp.encode), len(sp.encode))
	out.set("store.put.ns", median(sp.put), len(sp.put))
	out.set("store.get_disk.ns", median(sp.disk), len(sp.disk))
	out.set("store.get_lru.ns", median(sp.lru), len(sp.lru))
	out.set("server.hit_overhead_ns", median(sp.hit)-median(sp.lru), len(sp.hit))
	out.set("store.lru_hit_ratio", lruRatio, 1)
	out.set("server.synth_runs", synthRuns, 1)
	out.set("server.coalesced", coalesced, 1)
}

// traceEngine is an engine workload's traced run: after the usual set-up,
// passes of (untraced synthesis, traced replay, store delivery) until the
// window closes. It returns the last replay's spans.
func traceEngine(ctx context.Context, w engineWorkload, window time.Duration, tmp string, out *runOut) []*tracer {
	repeatSetup(func() error { return engineSetup(ctx, w) }, out)
	fx, err := startServe(tmp+"/trace-store", 1)
	if !out.check(err) {
		return nil
	}
	defer func() { out.check(fx.close()) }()
	before := fx.st.Counters()

	var passes []map[string]float64
	var sp storeSamples
	var last []*tracer
	deadline := time.Now().Add(window)
	for len(passes) == 0 || time.Now().Before(deadline) {
		last = nil // let the previous replay's spans go before the next
		var acc engineLayers
		res, tr, err := traceRequest(ctx, w.Main, &acc)
		if !out.check(err) || !out.check(fx.storePass(res, &sp)) {
			return nil
		}
		last = []*tracer{tr}
		passes = append(passes, acc.metrics())
	}
	ratio := lruHitRatio(before, fx.st.Counters())
	runs, coalesced, err := fx.serverCounters()
	if !out.check(err) {
		return nil
	}
	setLayerMetrics(out, passes, sp, ratio, runs, coalesced)
	out.detail["passes"] = len(passes)
	return last
}

// traceServe is serve-mix's traced run: the same set-up and load as the
// untraced run (for the LRU hit ratio and the server's counters), then
// servePasses traced passes over the cold pool, each request synthesized
// untraced, replayed traced, and delivered through the store.
func traceServe(ctx context.Context, seed uint64, window time.Duration, tmp string, out *runOut) []*tracer {
	sm, _, _ := setupServeReps(tmp, out)
	if sm == nil {
		return nil
	}
	defer func() { out.check(sm.fx.close()) }()

	before := sm.fx.st.Counters()
	ls := sm.load(seed, window)
	out.record(ls.attempted, ls.errs)
	ratio := lruHitRatio(before, sm.fx.st.Counters())
	runs, coalesced, err := sm.fx.serverCounters()
	if !out.check(err) {
		return nil
	}

	var passes []map[string]float64
	var sp storeSamples
	var last []*tracer
	for p := 0; p < servePasses; p++ {
		last = last[:0]
		var acc engineLayers
		for _, r := range coldPool {
			res, tr, err := traceRequest(ctx, r, &acc)
			if !out.check(err) || !out.check(sm.fx.storePass(res, &sp)) {
				return nil
			}
			last = append(last, tr)
		}
		passes = append(passes, acc.metrics())
	}
	setLayerMetrics(out, passes, sp, ratio, runs, coalesced)
	out.detail["passes"] = len(passes)
	return last
}
