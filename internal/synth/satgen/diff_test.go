package satgen

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"memsynth/internal/canon"
	"memsynth/internal/cat"
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/minimal"
	"memsynth/internal/synth"
)

// requireOracleAgrees is the per-program SAT oracle: for every distinct
// program (generation-order-first per canon.ProgramKey) of enumModel up to
// bound, the canonical keys of the SAT candidates for satModel that the
// minimality checker confirms must equal, in visit order, the keys of the
// minimal executions exhaustive enumeration finds. It returns the number
// of programs compared.
func requireOracleAgrees(t *testing.T, satModel, enumModel memmodel.Model, bound int) int {
	t.Helper()
	checker := minimal.NewChecker(enumModel)
	minimalKey := func(x *exec.Execution) (string, bool) {
		if len(checker.Check(x).MinimalFor()) == 0 {
			return "", false
		}
		return canon.Key(x), true
	}
	seen := make(map[string]bool)
	programs := 0
	err := synth.EnumeratePrograms(enumModel.Vocab(), synth.Options{MaxEvents: bound}, func(p *litmus.Test) bool {
		pk := canon.ProgramKey(p)
		if seen[pk] {
			return true
		}
		seen[pk] = true
		programs++
		checker.Bind(p)
		var want []string
		exec.Enumerate(p, exec.EnumerateOptions{}, func(x *exec.Execution) bool {
			if key, ok := minimalKey(x); ok {
				want = append(want, key)
			}
			return true
		})
		cands, err := Candidates(satModel, p)
		if err != nil {
			t.Fatalf("%s: Candidates(%s): %v", enumModel.Name(), p, err)
		}
		var got []string
		for _, x := range cands {
			if key, ok := minimalKey(x); ok {
				got = append(got, key)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s@%d: program %s: SAT minimal keys %q, enumeration %q",
				enumModel.Name(), bound, p, got, want)
			return false
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return programs
}

func builtin(t *testing.T, name string) memmodel.Model {
	t.Helper()
	m, err := memmodel.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDifferentialNative holds the SAT pipeline and exhaustive enumeration
// to the same minimal witnesses on every distinct sc and tso program up
// to bound 5.
func TestDifferentialNative(t *testing.T) {
	bound := 5
	if testing.Short() {
		bound = 4
	}
	for _, name := range []string{"sc", "tso"} {
		m := builtin(t, name)
		if n := requireOracleAgrees(t, m, m, bound); n == 0 {
			t.Errorf("%s@%d: no programs compared", name, bound)
		}
	}
}

// TestDifferentialAllBuiltins runs the oracle at a small bound on every
// builtin the encoder supports and requires Candidates to refuse the
// rest with a reason, so a model gaining or losing encoders is noticed.
func TestDifferentialAllBuiltins(t *testing.T) {
	native := map[string]bool{"sc": true, "tso": true}
	for _, m := range memmodel.All() {
		if !native[m.Name()] {
			if err := supported(m); err == nil {
				t.Errorf("%s: unexpectedly supported by the SAT encoder", m.Name())
			}
			continue
		}
		requireOracleAgrees(t, m, m, 3)
	}
}

// TestDifferentialCatModels checks the example cat definitions against
// the SAT encoding of the same-named builtin: the cat model's exhaustive
// minimal witnesses must match the builtin's SAT candidates, while
// Candidates itself refuses the cat model (a redefinition may change
// semantics the encoder tables cannot see).
func TestDifferentialCatModels(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "examples", "cat", "*.cat"))
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
		if err := supported(m); err == nil {
			t.Fatalf("%s: cat model accepted by the SAT encoder", f)
		}
		requireOracleAgrees(t, builtin(t, m.Name()), m, 4)
	}
}
