package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"time"

	"memsynth"
	"memsynth/internal/memmodel"
	"memsynth/internal/store"
	"memsynth/internal/synth"
)

// resolve looks up a request's model and fills in the worker count.
func (r engineRequest) resolve() (memmodel.Model, synth.Options, error) {
	m, err := memsynth.ModelByName(r.Model)
	if err != nil {
		return nil, synth.Options{}, err
	}
	opts := r.Opts
	opts.Workers = runtime.NumCPU()
	return m, opts, nil
}

// synthesize runs the request through the public engine entry point and
// checks the result against the request's pinned reference.
func (r engineRequest) synthesize(ctx context.Context) (*synth.Result, error) {
	m, opts, err := r.resolve()
	if err != nil {
		return nil, err
	}
	res, err := memsynth.SynthesizeContext(ctx, m, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r, err)
	}
	if err := checkResult(res, r.Ref); err != nil {
		return nil, fmt.Errorf("%s: %w", r, err)
	}
	return res, nil
}

// unionKeysDigest hashes a suite's canonical keys in suite order.
func unionKeysDigest(keys []string) string {
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s\n", k)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func suiteKeys(s *synth.Suite) []string {
	keys := make([]string, len(s.Entries))
	for i, e := range s.Entries {
		keys[i] = e.Key
	}
	return keys
}

// checkResult compares a synthesis result with its pinned reference.
func checkResult(res *synth.Result, ref reference) error {
	if res.Stats.Interrupted {
		return fmt.Errorf("synthesis interrupted")
	}
	if d := store.Digest(res.Model, res.ModelDigest, res.Options); d != ref.Digest {
		return fmt.Errorf("store digest %s, want %s", d, ref.Digest)
	}
	if n := len(res.Union.Entries); n != ref.Union || res.Stats.Entries != ref.Union {
		return fmt.Errorf("union has %d entries (stats %d), want %d", n, res.Stats.Entries, ref.Union)
	}
	if err := checkPerAxiom(suiteSizes(res), ref); err != nil {
		return err
	}
	if d := unionKeysDigest(suiteKeys(res.Union)); d != ref.UnionKeys {
		return fmt.Errorf("union keys digest %s, want %s", d, ref.UnionKeys)
	}
	if res.Stats.Programs != ref.Programs {
		return fmt.Errorf("%d distinct programs, want %d", res.Stats.Programs, ref.Programs)
	}
	if c := res.Stats.Executions + res.Stats.ExecutionsFast; c != ref.Candidates {
		return fmt.Errorf("%d candidate executions, want %d", c, ref.Candidates)
	}
	return nil
}

func suiteSizes(res *synth.Result) map[string]int {
	sizes := make(map[string]int, len(res.PerAxiom))
	for name, s := range res.PerAxiom {
		sizes[name] = len(s.Entries)
	}
	return sizes
}

// checkPerAxiom compares per-axiom suite sizes with the reference.
func checkPerAxiom(got map[string]int, ref reference) error {
	if len(got) != len(ref.PerAxiom) {
		return fmt.Errorf("%d axiom suites, want %d", len(got), len(ref.PerAxiom))
	}
	names := make([]string, 0, len(ref.PerAxiom))
	for name := range ref.PerAxiom {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if n, ok := got[name]; !ok || n != ref.PerAxiom[name] {
			return fmt.Errorf("axiom %s has %d entries, want %d", name, n, ref.PerAxiom[name])
		}
	}
	return nil
}

// engineSetup is an engine workload's set-up: resolve the model, check the
// request's digest, and run the warm-up synthesis.
func engineSetup(ctx context.Context, w engineWorkload) error {
	m, opts, err := w.Main.resolve()
	if err != nil {
		return err
	}
	if d := store.DigestModel(m, opts); d != w.Main.Ref.Digest {
		return fmt.Errorf("%s: store digest %s, want %s", w.Main, d, w.Main.Ref.Digest)
	}
	_, err = w.Warmup.synthesize(ctx)
	return err
}

// runEngine measures an engine workload untraced: syntheses until the
// measuring window closes, with a reference run between each two.
func runEngine(ctx context.Context, w engineWorkload, window time.Duration, out *runOut) {
	setup, speed := timedSetup(func() error { return engineSetup(ctx, w) }, out)

	rss := startSampler()
	var walls, cpus, factors, adjWalls []float64
	before := calibrate(rss)
	deadline := time.Now().Add(window)
	for len(walls) == 0 || time.Now().Before(deadline) {
		t0, c0 := time.Now(), cpuTime()
		_, err := w.Main.synthesize(ctx)
		wall, cpu := ms(time.Since(t0)), ms(cpuTime()-c0)
		out.check(err)
		after := calibrate(rss)
		k := hostFactor(before, after)
		before = after
		walls, cpus, factors = append(walls, wall), append(cpus, cpu), append(factors, k)
		adjWalls = append(adjWalls, wall*k)
	}

	// Each synthesis is one sample; the figures are medians over them.
	n := len(walls)
	out.set("setup_s", median(setup)*speed, len(setup))
	out.set("synth_p50_ms", median(adjWalls), n)
	out.set("ops_per_s", 1e3/median(adjWalls), n)
	out.set("cpu_per_op_ms", median(cpus), n)
	out.setRSS(rss.close())
	out.set("synth_s", median(walls)/1e3, n)
	out.set("synth_cpu_s", median(cpus)/1e3, n)
	out.set("host_factor", median(factors), n)
	out.detail["synth_samples"] = map[string][]float64{"wall_ms": walls, "cpu_ms": cpus, "host_factor": factors}
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
