// Package admit_test holds the admit-on vs admit-off differential gate.
// It lives in an external test package because it compares stored suites
// (internal/store imports internal/synth, which imports admit — an
// in-package test importing store would close that cycle).
package admit_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"memsynth/internal/admit"
	"memsynth/internal/cat"
	"memsynth/internal/memmodel"
	"memsynth/internal/store"
	"memsynth/internal/synth"
)

func runAdmit(t *testing.T, m memmodel.Model, mode string, bound int) *synth.Result {
	t.Helper()
	opts := synth.Options{MaxEvents: bound, Admit: mode, Workers: 2}
	res, err := synth.SynthesizeContext(context.Background(), m, opts)
	if err != nil {
		t.Fatalf("%s/admit=%s@%d: %v", m.Name(), mode, bound, err)
	}
	if res.Stats.Interrupted {
		t.Fatalf("%s/admit=%s@%d: interrupted", m.Name(), mode, bound)
	}
	return res
}

// requireIdentical asserts the two results encode to byte-identical stored
// suites under the same digest, and that the admit run's execution
// accounting adds back up to the exhaustive count.
func requireIdentical(t *testing.T, m memmodel.Model, bound int, on, off *synth.Result) {
	t.Helper()
	se, err := store.Encode(on)
	if err != nil {
		t.Fatalf("encode admit-on: %v", err)
	}
	so, err := store.Encode(off)
	if err != nil {
		t.Fatalf("encode admit-off: %v", err)
	}
	if se.Manifest.Digest != so.Manifest.Digest {
		t.Errorf("%s@%d: digests differ: admit-on %s, admit-off %s",
			m.Name(), bound, se.Manifest.Digest, so.Manifest.Digest)
	}
	if len(se.Texts) != len(so.Texts) {
		t.Fatalf("%s@%d: suite count differs: admit-on %d, admit-off %d",
			m.Name(), bound, len(se.Texts), len(so.Texts))
	}
	for name, wantText := range so.Texts {
		gotText, ok := se.Texts[name]
		if !ok {
			t.Fatalf("%s@%d: admit-on result missing suite %q", m.Name(), bound, name)
		}
		if gotText != wantText {
			t.Errorf("%s@%d: suite %q text differs between admit modes", m.Name(), bound, name)
		}
		if !reflect.DeepEqual(se.Manifest.Suites[name].Entries, so.Manifest.Suites[name].Entries) {
			t.Errorf("%s@%d: suite %q manifest entries differ between admit modes", m.Name(), bound, name)
		}
	}
	if off.Stats.ExecutionsFast != 0 {
		t.Errorf("%s@%d: admit-off reports %d fast-decided executions",
			m.Name(), bound, off.Stats.ExecutionsFast)
	}
	if off.Admit != "off" {
		t.Errorf("%s@%d: admit-off Result.Admit = %q, want off", m.Name(), bound, off.Admit)
	}
	// On a completed run the admit path must account for every execution
	// the exhaustive path enumerates: checked plus fast-decided.
	if got := on.Stats.Executions + on.Stats.ExecutionsFast; got != off.Stats.Executions {
		t.Errorf("%s@%d: admit-on enumerated %d + fast %d = %d executions, admit-off enumerated %d",
			m.Name(), bound, on.Stats.Executions, on.Stats.ExecutionsFast, got, off.Stats.Executions)
	}
}

// TestAdmitDifferentialNative: models with a registered closure algorithm
// must take the fast path, prune a nonzero share of the execution space,
// and still produce byte-identical suites and digests.
func TestAdmitDifferentialNative(t *testing.T) {
	bound := 5
	if testing.Short() {
		bound = 4
	}
	for _, name := range []string{"sc", "tso"} {
		m, err := memmodel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if ok, reason := admit.Supports(m); !ok {
			t.Fatalf("expected fast admissibility for %s, got fallback: %s", name, reason)
		}
		on := runAdmit(t, m, "", bound)
		off := runAdmit(t, m, "off", bound)
		if on.Admit != "fast" {
			t.Errorf("%s@%d: Result.Admit = %q, want fast", name, bound, on.Admit)
		}
		if on.Stats.ExecutionsFast == 0 {
			t.Errorf("%s@%d: fast path decided nothing (ExecutionsFast = 0)", name, bound)
		}
		requireIdentical(t, m, bound, on, off)
	}
}

// TestAdmitDifferentialAllBuiltins covers every builtin at a small bound:
// models without a closure algorithm must fall back to full enumeration
// (Result.Admit = "off" even when requested) and stay byte-identical.
func TestAdmitDifferentialAllBuiltins(t *testing.T) {
	for _, m := range memmodel.All() {
		on := runAdmit(t, m, "auto", 3)
		off := runAdmit(t, m, "off", 3)
		supported, reason := admit.Supports(m)
		if supported {
			if on.Admit != "fast" {
				t.Errorf("%s: Result.Admit = %q, want fast", m.Name(), on.Admit)
			}
		} else {
			if reason == "" {
				t.Errorf("%s: unsupported with empty reason", m.Name())
			}
			if on.Admit != "off" {
				t.Errorf("%s: Result.Admit = %q for unsupported model, want off", m.Name(), on.Admit)
			}
			if on.Stats.ExecutionsFast != 0 {
				t.Errorf("%s: unsupported model reports %d fast-decided executions",
					m.Name(), on.Stats.ExecutionsFast)
			}
		}
		requireIdentical(t, m, 3, on, off)
	}
}

// TestCountForbiddenIgnoresAdmit: Decide refutes minimality, not
// forbiddenness, so counting forbidden outcomes must leave admit off —
// the count is the exhaustive one whatever Options.Admit asks for.
func TestCountForbiddenIgnoresAdmit(t *testing.T) {
	for _, name := range []string{"sc", "tso"} {
		m, err := memmodel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for bound := 3; bound <= 5; bound++ {
			counts := make(map[string]int)
			for _, mode := range []string{"", "off"} {
				opts := synth.Options{MaxEvents: bound, Admit: mode, Workers: 2, CountForbidden: true}
				res, err := synth.SynthesizeContext(context.Background(), m, opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Admit != "off" || res.Stats.ExecutionsFast != 0 {
					t.Errorf("%s@%d admit=%q: Result.Admit = %q with %d fast-decided executions under CountForbidden, want off and 0",
						name, bound, mode, res.Admit, res.Stats.ExecutionsFast)
				}
				counts[mode] = res.Stats.ForbiddenOutcomes
			}
			if counts[""] != counts["off"] || counts[""] == 0 {
				t.Errorf("%s@%d: ForbiddenOutcomes %d with admit on, %d with admit off",
					name, bound, counts[""], counts["off"])
			}
		}
	}
}

// TestAdmitDifferentialCatModels compiles the example cat definitions.
// Definition-language models must always fall back — including sc.cat and
// tso.cat, whose names collide with the builtins that do have algorithms;
// the gate is the model's provenance, not its name.
func TestAdmitDifferentialCatModels(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "cat", "*.cat"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example cat models found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		m, err := cat.Compile(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if ok, reason := admit.Supports(m); ok {
			t.Fatalf("%s: expected fallback for cat-compiled model %q, got fast admissibility", f, m.Name())
		} else if reason == "" {
			t.Fatalf("%s: fallback with empty reason", f)
		}
		on := runAdmit(t, m, "", 4)
		if on.Admit != "off" {
			t.Errorf("%s: Result.Admit = %q for cat model, want off", f, on.Admit)
		}
		requireIdentical(t, m, 4, on, runAdmit(t, m, "off", 4))
	}
}

// TestAdmitDifferentialWorkers: the fast path's accounting and output are
// independent of worker count (the filter is per-assignment, so sharding
// the program stream cannot change what is pruned).
func TestAdmitDifferentialWorkers(t *testing.T) {
	m, err := memmodel.ByName("tso")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := synth.SynthesizeContext(context.Background(), m, synth.Options{MaxEvents: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := synth.SynthesizeContext(context.Background(), m, synth.Options{MaxEvents: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Stats.Executions != par.Stats.Executions || seq.Stats.ExecutionsFast != par.Stats.ExecutionsFast {
		t.Errorf("execution accounting depends on workers: 1 worker (%d, %d fast), 4 workers (%d, %d fast)",
			seq.Stats.Executions, seq.Stats.ExecutionsFast, par.Stats.Executions, par.Stats.ExecutionsFast)
	}
	ds, err := store.Encode(seq)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := store.Encode(par)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Manifest.Digest != dp.Manifest.Digest {
		t.Errorf("digest depends on workers with admit on: %s vs %s", ds.Manifest.Digest, dp.Manifest.Digest)
	}
}

// TestAdmitDigestIndependence proves the Admit switch never shifts a store
// digest, Normalize strips it, and Validate rejects unknown modes.
func TestAdmitDigestIndependence(t *testing.T) {
	m, err := memmodel.ByName("tso")
	if err != nil {
		t.Fatal(err)
	}
	base := synth.Options{MaxEvents: 4}
	withOff := base
	withOff.Admit = "off"
	if store.DigestModel(m, base) != store.DigestModel(m, withOff) {
		t.Error("Options.Admit changed the store digest")
	}
	if got := withOff.Normalize().Admit; got != "" {
		t.Errorf("Normalize kept Admit = %q", got)
	}
	bad := base
	bad.Admit = "fast"
	err = bad.Validate()
	if err == nil {
		t.Fatal("Validate accepted unknown admit mode")
	}
	for _, want := range []string{"fast", "auto", "off"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-admit error %q does not mention %q", err, want)
		}
	}
}
