// Package satgen is the paper's SAT pipeline (Fig. 5c), kept as a test
// oracle for the enumeration engine: minimal litmus tests fall out of a
// relational model finder instead of exhaustive execution enumeration.
// For one program it encodes the per-program minimality criterion — some
// relaxation-bounded execution is forbidden, and every strictly-weaker
// perturbation of it is observable — as one internal/rml problem over
// internal/sat, and enumerates the satisfying executions with blocking
// clauses on an incrementally-solved instance.
//
// No binary links this package; its differential tests compare
// Candidates against exhaustive enumeration plus the minimality checker.
package satgen

import (
	"errors"
	"fmt"

	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
)

// maxConflictsPerSolve bounds each incremental solve so a pathologically
// hard encoding fails with an error instead of hanging a test. In practice
// these instances (≤ 8 events) resolve in well under a thousand conflicts.
const maxConflictsPerSolve = 100_000

// Candidates encodes the minimality criterion for program t under model m
// and returns every satisfying execution, ordered by the rank
// exec.Enumerate would visit them in. Only built-in Go models whose axioms
// all have registered encoders are supported (sc and tso); anything else
// is an error, as is a solve that exceeds the conflict budget.
func Candidates(m memmodel.Model, t *litmus.Test) ([]*exec.Execution, error) {
	if err := supported(m); err != nil {
		return nil, err
	}
	enc, err := encodeProgram(m, encoders[m.Name()], t)
	if err != nil {
		return nil, err
	}
	in, err := enc.prob.Compile()
	if err != nil {
		return nil, err
	}
	in.SetMaxConflicts(maxConflictsPerSolve)
	var cands []*exec.Execution
	for {
		model, ok, err := in.Solve()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		cands = append(cands, enc.extract(model))
		if !in.Block(model) {
			break
		}
	}
	sortByEnumerationRank(cands, enc)
	return cands, nil
}

// supported rejects models the encoder tables cannot represent. The check
// is conservative: definition-language models (cat) are rejected even
// under a supported name, since a redefinition may change semantics the
// encoder tables cannot see.
func supported(m memmodel.Model) error {
	if src, _ := memmodel.SourceOf(m); src != "builtin" {
		return fmt.Errorf("satgen: %s-defined models are not supported by the SAT encoder", src)
	}
	table, ok := encoders[m.Name()]
	if !ok {
		return fmt.Errorf("satgen: model %s has no SAT axiom encodings", m.Name())
	}
	if m.Vocab().UsesSC {
		return errors.New("satgen: sc-fence total orders are not encoded")
	}
	for _, a := range m.Axioms() {
		if table[a.Name] == nil {
			return fmt.Errorf("satgen: axiom %s has no SAT encoding", a.Name)
		}
	}
	return nil
}
