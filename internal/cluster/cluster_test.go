package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"memsynth/internal/memmodel"
	"memsynth/internal/store"
	"memsynth/internal/synth"
)

// fastConfig is a Config tuned for tests: tight heartbeats so expiry
// fires in milliseconds, short polls so fake workers never block long.
func fastConfig() Config {
	return Config{
		HeartbeatInterval: 40 * time.Millisecond,
		ExpireAfter:       200 * time.Millisecond,
		PollWait:          150 * time.Millisecond,
		Logf:              nil,
	}
}

func mustModel(t *testing.T, name string) memmodel.Model {
	t.Helper()
	m, err := memmodel.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// encodeResult renders a result exactly as the store would persist it,
// for byte comparisons between cluster-merged and single-node runs.
func encodeResult(t *testing.T, res *synth.Result) *store.StoredSuite {
	t.Helper()
	ss, err := store.Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// assertSameSuites fails unless two encoded results carry identical
// digests and byte-identical suite texts.
func assertSameSuites(t *testing.T, got, want *store.StoredSuite) {
	t.Helper()
	if got.Manifest.Digest != want.Manifest.Digest {
		t.Fatalf("digest %s, want %s", got.Manifest.Digest, want.Manifest.Digest)
	}
	if len(got.Texts) != len(want.Texts) {
		t.Fatalf("%d suites, want %d", len(got.Texts), len(want.Texts))
	}
	for name, text := range want.Texts {
		if got.Texts[name] != text {
			t.Errorf("suite %q bytes differ from single-node", name)
		}
	}
}

func metricInt(c *Coordinator, name string) int64 {
	v := c.metrics.Get(name)
	if v == nil {
		return 0
	}
	iv, ok := v.(*expvar.Int)
	if !ok {
		return 0
	}
	return iv.Value()
}

// startWorker runs a real Worker against the coordinator URL; the
// returned stop function triggers its drain and waits for Run to return.
func startWorker(t *testing.T, url, name string, grace time.Duration) (stop func()) {
	t.Helper()
	wk := NewWorker(WorkerConfig{CoordinatorURL: url, Name: name, DrainGrace: grace})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		wk.Run(ctx)
	}()
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("worker did not drain within 10s")
		}
	}
	t.Cleanup(stop)
	return stop
}

// ghost is a scripted fake worker driven over raw HTTP — it registers,
// polls, and then misbehaves exactly as the test directs (vanishing,
// uploading late, never completing).
type ghost struct {
	t   *testing.T
	url string
	id  string
}

func newGhost(t *testing.T, url string, maxJobs int) *ghost {
	t.Helper()
	g := &ghost{t: t, url: url}
	body, _ := json.Marshal(RegisterRequest{
		Name:          "ghost",
		EngineVersion: synth.EngineVersion,
		MaxJobs:       maxJobs,
	})
	resp, err := http.Post(url+"/v1/cluster/workers", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ghost register: status %d", resp.StatusCode)
	}
	var rr RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	g.id = rr.WorkerID
	return g
}

// pollJob polls until a job is assigned or the deadline passes.
func (g *ghost) pollJob(deadline time.Duration) (ShardJob, bool) {
	g.t.Helper()
	var job ShardJob
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		resp, err := http.Post(g.url+"/v1/cluster/workers/"+g.id+"/poll", "application/json", nil)
		if err != nil {
			g.t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			err := json.NewDecoder(resp.Body).Decode(&job)
			resp.Body.Close()
			if err != nil {
				g.t.Fatal(err)
			}
			return job, true
		}
		resp.Body.Close()
	}
	return job, false
}

func (g *ghost) upload(job ShardJob, sr *synth.ShardResult) (int, ResultResponse) {
	g.t.Helper()
	wire := EncodeShardResult(job.ShardDigest, sr)
	body, _ := json.Marshal(wire)
	resp, err := http.Post(g.url+"/v1/cluster/shards/"+job.ShardDigest+"/result?worker="+g.id,
		"application/json", bytes.NewReader(body))
	if err != nil {
		g.t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr ResultResponse
	json.NewDecoder(resp.Body).Decode(&rr)
	return resp.StatusCode, rr
}

func TestShardDigestDistinct(t *testing.T) {
	base := ShardDigest("req", 0, 2, "1")
	for i, other := range []string{
		ShardDigest("req", 1, 2, "1"),
		ShardDigest("req", 0, 3, "1"),
		ShardDigest("req2", 0, 2, "1"),
		ShardDigest("req", 0, 2, "2"),
	} {
		if other == base {
			t.Errorf("variant %d collides with base digest", i)
		}
	}
	if again := ShardDigest("req", 0, 2, "1"); again != base {
		t.Error("shard digest is not deterministic")
	}
}

func TestParsePriority(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Priority
	}{{"", PriorityInteractive}, {"interactive", PriorityInteractive}, {"batch", PriorityBatch}} {
		got, err := ParsePriority(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePriority(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParsePriority("urgent"); err == nil {
		t.Error("unknown priority accepted")
	}
}

// TestCodecRoundTrip pins the wire format: a shard result survives
// encode → JSON → decode and still merges byte-identically.
func TestCodecRoundTrip(t *testing.T) {
	m := mustModel(t, "sc")
	opts := synth.Options{MaxEvents: 3}
	const stride = 2
	shards := make([]*synth.ShardResult, stride)
	for i := range shards {
		sr, err := synth.SynthesizeShard(context.Background(), m, opts, synth.ShardSpec{Index: i, Stride: stride})
		if err != nil {
			t.Fatal(err)
		}
		wire := EncodeShardResult(fmt.Sprintf("digest-%d", i), sr)
		raw, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		var back WireShardResult
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		shards[i], err = DecodeShardResult(&back)
		if err != nil {
			t.Fatal(err)
		}
	}
	merged, err := synth.MergeShards(m, opts, shards)
	if err != nil {
		t.Fatal(err)
	}
	single := synth.Synthesize(m, opts)
	assertSameSuites(t, encodeResult(t, merged), encodeResult(t, single))

	// A result from a different engine version must never decode.
	sr, err := synth.SynthesizeShard(context.Background(), m, opts, synth.ShardSpec{Index: 0, Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	wire := EncodeShardResult("d", sr)
	wire.EngineVersion = "bogus"
	if _, err := DecodeShardResult(wire); err == nil {
		t.Error("engine-version-skewed result decoded")
	}
}

func TestCoordinatorNoWorkers(t *testing.T) {
	c := New(fastConfig())
	defer c.Close()
	_, err := c.Synthesize(context.Background(), mustModel(t, "sc"), synth.Options{MaxEvents: 3}, PriorityInteractive, nil)
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

// TestCoordinatorEndToEnd runs a request through real workers and pins
// the determinism contract at the coordinator level: the merged result
// is byte-identical to a single-node run, and a duplicate of the whole
// request coalesces onto the cached... (the flight layer above owns
// caching; here a second Synthesize just redistributes).
func TestCoordinatorEndToEnd(t *testing.T) {
	cfg := fastConfig()
	cfg.ShardsPerRequest = 3
	c := New(cfg)
	defer c.Close()
	ts := httptest.NewServer(c)
	defer ts.Close()

	startWorker(t, ts.URL, "w1", time.Second)
	startWorker(t, ts.URL, "w2", time.Second)
	waitFor(t, func() bool { return c.LiveWorkers() == 2 })

	m := mustModel(t, "sc")
	opts := synth.Options{MaxEvents: 4}
	var events atomic.Int64
	res, err := c.Synthesize(context.Background(), m, opts, PriorityInteractive, func(synth.ProgressEvent) { events.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	single := synth.Synthesize(m, opts)
	assertSameSuites(t, encodeResult(t, res), encodeResult(t, single))
	if got := metricInt(c, "shards_completed"); got != 3 {
		t.Errorf("shards_completed = %d, want 3", got)
	}
}

// TestCoordinatorWorkerKilledMidShard is the reassignment contract: a
// worker that takes a shard and dies mid-run (no heartbeats, no upload)
// is expired, its shard re-dispatched to a live worker, and the merged
// result is still byte-identical to single-node. The dead worker's late
// upload is answered 410 and never double-merged.
func TestCoordinatorWorkerKilledMidShard(t *testing.T) {
	cfg := fastConfig()
	cfg.ShardsPerRequest = 2
	c := New(cfg)
	defer c.Close()
	ts := httptest.NewServer(c)
	defer ts.Close()

	g := newGhost(t, ts.URL, 1)

	m := mustModel(t, "sc")
	opts := synth.Options{MaxEvents: 4}
	type outcome struct {
		res *synth.Result
		err error
	}
	resc := make(chan outcome, 1)
	go func() {
		res, err := c.Synthesize(context.Background(), m, opts, PriorityInteractive, nil)
		resc <- outcome{res, err}
	}()

	// The ghost grabs a shard... and then silently dies.
	job, ok := g.pollJob(5 * time.Second)
	if !ok {
		t.Fatal("ghost was never assigned a shard")
	}

	// A real worker joins; after the ghost expires, it inherits the
	// ghost's shard and completes the request.
	startWorker(t, ts.URL, "medic", time.Second)

	var oc outcome
	select {
	case oc = <-resc:
	case <-time.After(30 * time.Second):
		t.Fatal("request did not complete after worker death")
	}
	if oc.err != nil {
		t.Fatal(oc.err)
	}
	single := synth.Synthesize(m, opts)
	assertSameSuites(t, encodeResult(t, oc.res), encodeResult(t, single))
	if got := metricInt(c, "shards_stolen"); got < 1 {
		t.Errorf("shards_stolen = %d, want >= 1", got)
	}

	// The ghost rises and uploads its completed shard anyway: the flight
	// is gone, so the upload must be refused, not merged twice.
	sr, err := synth.SynthesizeShard(context.Background(), m, opts, synth.ShardSpec{Index: job.Index, Stride: job.Stride})
	if err != nil {
		t.Fatal(err)
	}
	code, rr := g.upload(job, sr)
	if code != http.StatusGone || rr.Accepted {
		t.Errorf("late upload: status %d accepted=%t, want 410 refused", code, rr.Accepted)
	}
}

// TestWorkerDrainHandsBackShard pins graceful drain: a SIGTERM'd worker
// whose shard cannot finish within the grace period hands it back, the
// shard is reassigned (not lost), merged exactly once, and the final
// suites are byte-identical to single-node.
func TestWorkerDrainHandsBackShard(t *testing.T) {
	cfg := fastConfig()
	cfg.ShardsPerRequest = 2
	cfg.ExpireAfter = 10 * time.Second // isolate drain from expiry stealing
	c := New(cfg)
	defer c.Close()
	ts := httptest.NewServer(c)
	defer ts.Close()

	// The blocker worker's engine never finishes on its own — it only
	// returns (interrupted) when drain cancels its shard context.
	blocker := NewWorker(WorkerConfig{CoordinatorURL: ts.URL, Name: "blocker", DrainGrace: 50 * time.Millisecond})
	started := make(chan string, 4)
	blocker.synthFn = func(ctx context.Context, m memmodel.Model, opts synth.Options, shard synth.ShardSpec) (*synth.ShardResult, error) {
		started <- fmt.Sprintf("%d/%d", shard.Index, shard.Stride)
		<-ctx.Done()
		return &synth.ShardResult{
			Model:   m.Name(),
			Options: opts.Normalize(),
			Shard:   shard,
			Stats:   synth.Stats{Interrupted: true},
		}, nil
	}
	bctx, bcancel := context.WithCancel(context.Background())
	bdone := make(chan struct{})
	go func() {
		defer close(bdone)
		blocker.Run(bctx)
	}()
	waitFor(t, func() bool { return c.LiveWorkers() == 1 })

	m := mustModel(t, "sc")
	opts := synth.Options{MaxEvents: 3}
	type outcome struct {
		res *synth.Result
		err error
	}
	resc := make(chan outcome, 1)
	go func() {
		res, err := c.Synthesize(context.Background(), m, opts, PriorityInteractive, nil)
		resc <- outcome{res, err}
	}()

	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("blocker never received a shard")
	}
	// A healthy worker takes the other shard (and, after the drain hand-
	// back, the blocker's too).
	startWorker(t, ts.URL, "healthy", time.Second)

	// SIGTERM the blocker: its shard cannot finish, so after the grace
	// period it must be handed back, not lost.
	bcancel()
	select {
	case <-bdone:
	case <-time.After(10 * time.Second):
		t.Fatal("blocker did not drain")
	}

	var oc outcome
	select {
	case oc = <-resc:
	case <-time.After(30 * time.Second):
		t.Fatal("request did not complete after drain hand-back")
	}
	if oc.err != nil {
		t.Fatal(oc.err)
	}
	single := synth.Synthesize(m, opts)
	assertSameSuites(t, encodeResult(t, oc.res), encodeResult(t, single))
	if got := metricInt(c, "shards_released"); got < 1 {
		t.Errorf("shards_released = %d, want >= 1 (drain hand-back)", got)
	}
	if got := metricInt(c, "shard_duplicates"); got != 0 {
		t.Errorf("shard_duplicates = %d, want 0", got)
	}
	// Every merged shard was completed exactly once: 2 merges from
	// (dispatches - hand-backs).
	if got := metricInt(c, "shards_completed"); got != 2 {
		t.Errorf("shards_completed = %d, want 2", got)
	}
}

// TestCoordinatorBackpressure pins the 429 path's engine: a request
// whose shards overflow the bounded queue is rejected with a
// SaturatedError carrying a retry hint, not queued unboundedly.
func TestCoordinatorBackpressure(t *testing.T) {
	cfg := fastConfig()
	cfg.ShardsPerRequest = 3
	cfg.QueueDepth = 2
	c := New(cfg)
	defer c.Close()
	ts := httptest.NewServer(c)
	defer ts.Close()

	newGhost(t, ts.URL, 1) // live but never polls

	_, err := c.Synthesize(context.Background(), mustModel(t, "sc"), synth.Options{MaxEvents: 3}, PriorityInteractive, nil)
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
	var sat *SaturatedError
	if !errors.As(err, &sat) || sat.RetryAfter <= 0 {
		t.Fatalf("SaturatedError not carrying a retry hint: %v", err)
	}
	if got := metricInt(c, "saturated_rejects"); got != 1 {
		t.Errorf("saturated_rejects = %d, want 1", got)
	}
}

// TestPriorityDispatchOrder pins interactive-before-batch: with both
// queued, a polling worker receives the interactive shard first even
// though the batch one was submitted earlier.
func TestPriorityDispatchOrder(t *testing.T) {
	cfg := fastConfig()
	cfg.ShardsPerRequest = 1
	cfg.ExpireAfter = 10 * time.Second
	c := New(cfg)
	defer c.Close()
	ts := httptest.NewServer(c)
	defer ts.Close()

	g := newGhost(t, ts.URL, 2)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go c.Synthesize(ctx, mustModel(t, "sc"), synth.Options{MaxEvents: 3}, PriorityBatch, nil)
	waitFor(t, func() bool { return queueDepth(c) == 1 })
	go c.Synthesize(ctx, mustModel(t, "tso"), synth.Options{MaxEvents: 3}, PriorityInteractive, nil)
	waitFor(t, func() bool { return queueDepth(c) == 2 })

	first, ok := g.pollJob(5 * time.Second)
	if !ok {
		t.Fatal("no job dispatched")
	}
	if first.Model != "tso" || first.Priority != "interactive" {
		t.Fatalf("first dispatched job is %s/%s, want tso/interactive", first.Model, first.Priority)
	}
	second, ok := g.pollJob(5 * time.Second)
	if !ok {
		t.Fatal("second job not dispatched")
	}
	if second.Model != "sc" || second.Priority != "batch" {
		t.Fatalf("second dispatched job is %s/%s, want sc/batch", second.Model, second.Priority)
	}
}

func queueDepth(c *Coordinator) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nQueued
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached within 10s")
}

// TestWarmupPrefetch pins the warmup loop: a digest requested often
// enough and missing from the store is re-synthesized at batch priority
// and persisted, without any client waiting on it.
func TestWarmupPrefetch(t *testing.T) {
	st, err := store.Open(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.Store = st
	cfg.WarmupInterval = 50 * time.Millisecond
	cfg.WarmupMinHits = 2
	c := New(cfg)
	defer c.Close()
	ts := httptest.NewServer(c)
	defer ts.Close()

	startWorker(t, ts.URL, "w1", time.Second)
	waitFor(t, func() bool { return c.LiveWorkers() == 1 })

	m := mustModel(t, "sc")
	opts := synth.Options{MaxEvents: 3}
	c.RecordRequest(m, opts)
	c.RecordRequest(m, opts)

	digest := store.DigestModel(m, opts)
	waitFor(t, func() bool {
		_, err := st.Get(digest)
		return err == nil
	})
	ss, err := st.Get(digest)
	if err != nil {
		t.Fatal(err)
	}
	single := synth.Synthesize(m, opts)
	assertSameSuites(t, ss, encodeResult(t, single))
	// The suite came through the cluster: the warmup loop ran it and a
	// worker completed its shard.
	if got := metricInt(c, "warmup_runs"); got < 1 {
		t.Errorf("warmup_runs = %d, want >= 1", got)
	}
	if got := metricInt(c, "shards_completed"); got < 1 {
		t.Errorf("shards_completed = %d, want >= 1", got)
	}
}
