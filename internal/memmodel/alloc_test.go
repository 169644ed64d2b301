package memmodel_test

import (
	"testing"

	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/synth"
)

// axiomCase is one pooled view (a program under one perturbation) and the
// executions of its program.
type axiomCase struct {
	view  *exec.View
	execs []*exec.Execution
}

// axiomSample returns, for model m, views over an evenly spaced sample of
// the programs the engine generates at bound 4 — each unperturbed and
// under every relaxation application — with every execution of each.
func axiomSample(tb testing.TB, m memmodel.Model) []axiomCase {
	tb.Helper()
	const samplePrograms = 32
	opts := synth.Options{MaxEvents: 4}
	total := 0
	enumerate := func(emit func(*litmus.Test) bool) {
		if err := synth.EnumeratePrograms(m.Vocab(), opts, emit); err != nil {
			tb.Fatal(err)
		}
	}
	enumerate(func(*litmus.Test) bool { total++; return true })
	stride := max(total/samplePrograms, 1)

	var cases []axiomCase
	i := 0
	enumerate(func(p *litmus.Test) bool {
		i++
		if i%stride != 0 {
			return true
		}
		var execs []*exec.Execution
		exec.Enumerate(p, exec.EnumerateOptions{UseSC: m.Vocab().UsesSC}, func(x *exec.Execution) bool {
			execs = append(execs, x.Clone())
			return true
		})
		for _, v := range perturbedViews(m, p) {
			cases = append(cases, axiomCase{v, execs})
		}
		return true
	})
	if len(cases) == 0 {
		tb.Fatalf("%s: empty sample", m.Name())
	}
	return cases
}

// evalAll resets the case's view to every execution in turn and evaluates
// every axiom, as the minimality checker's forbidden sweep does.
func evalAll(c axiomCase, axioms []memmodel.Axiom) (holds int) {
	for _, x := range c.execs {
		c.view.Reset(x)
		for _, a := range axioms {
			if a.Holds(c.view) {
				holds++
			}
		}
	}
	return holds
}

// TestAxiomsAllocFree holds every builtin model to the DESIGN.md §10 rule:
// once a pooled view has evaluated the model once, Reset plus every
// axiom's Holds allocates nothing.
func TestAxiomsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, m := range memmodel.All() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			axioms := m.Axioms()
			cases := axiomSample(t, m)
			evals := 0
			for _, c := range cases {
				// AllocsPerRun runs f once to warm up before measuring.
				allocs := testing.AllocsPerRun(1, func() { evalAll(c, axioms) })
				if allocs != 0 {
					t.Fatalf("%s under %v: %v allocations over %d executions",
						c.view.Test(), c.view.Perturbation(), allocs, len(c.execs))
				}
				evals += len(c.execs)
			}
			t.Logf("%d views, %d evaluations, 0 allocations", len(cases), evals)
		})
	}
}

var benchHolds int

// BenchmarkAxioms measures one full-axiom evaluation (Reset plus every
// axiom's Holds) per model over the TestAxiomsAllocFree sample; run with
// -benchmem to see allocations per evaluation.
func BenchmarkAxioms(b *testing.B) {
	for _, m := range memmodel.All() {
		b.Run(m.Name(), func(b *testing.B) {
			axioms := m.Axioms()
			type pair struct {
				v *exec.View
				x *exec.Execution
			}
			var pairs []pair
			for _, c := range axiomSample(b, m) {
				for _, x := range c.execs {
					pairs = append(pairs, pair{c.view, x})
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				p.v.Reset(p.x)
				for _, a := range axioms {
					if a.Holds(p.v) {
						benchHolds++
					}
				}
			}
		})
	}
}
