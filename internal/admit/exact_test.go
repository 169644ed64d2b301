package admit_test

import (
	"slices"
	"testing"

	"memsynth/internal/admit"
	"memsynth/internal/canon"
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/minimal"
	"memsynth/internal/synth"
)

// TestDecideExact holds Decide to both directions of its contract on every
// distinct program the engine generates for sc and tso at bound 5: for
// every reads-from assignment, Decide(rf) is true exactly when some
// coherence order extending rf makes an execution with a non-empty
// MinimalFor, as exhaustive enumeration and minimal.Checker judge it.
func TestDecideExact(t *testing.T) {
	const bound = 5
	for _, name := range []string{"sc", "tso"} {
		m, err := memmodel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		checker := minimal.NewChecker(m)
		adm := admit.NewChecker(m)
		seen := make(map[string]bool)
		var programs, assignments, admitted int
		err = synth.EnumeratePrograms(m.Vocab(), synth.Options{MaxEvents: bound}, func(tt *litmus.Test) bool {
			key := canon.ProgramKey(tt)
			if seen[key] {
				return true
			}
			seen[key] = true
			programs++
			checker.Bind(tt)
			adm.Bind(tt, checker.Apps())

			// Enumerate visits every extension of one assignment before
			// the next RFFilter call, so each call settles the previous
			// assignment.
			var rf []int
			var decided, hasMinimal bool
			settle := func() bool {
				if rf != nil && decided != hasMinimal {
					t.Errorf("%s@%d: program\n%s\nrf %v: Decide = %v, some extension minimal = %v",
						name, bound, litmus.Format(tt), rf, decided, hasMinimal)
					return false
				}
				return true
			}
			ok := true
			exec.Enumerate(tt, exec.EnumerateOptions{
				RFFilter: func(next []int) bool {
					ok = ok && settle()
					rf = append(rf[:0], next...)
					decided, hasMinimal = adm.Decide(next), false
					assignments++
					if decided {
						admitted++
					}
					return true
				},
				Stop: func() bool { return !ok },
			}, func(x *exec.Execution) bool {
				if !slices.Equal(x.RF, rf) {
					t.Fatalf("%s: extension rf %v visited under assignment %v", name, x.RF, rf)
				}
				hasMinimal = hasMinimal || len(checker.Check(x).MinimalFor()) > 0
				return true
			})
			return ok && settle()
		})
		if err != nil {
			t.Fatal(err)
		}
		if admitted == 0 || admitted == assignments {
			t.Errorf("%s@%d: Decide admitted %d of %d assignments; the gate is vacuous", name, bound, admitted, assignments)
		}
		t.Logf("%s@%d: %d programs, %d rf assignments, %d with a minimal extension", name, bound, programs, assignments, admitted)
	}
}
