// Package memmodel defines axiomatic memory consistency models as sets of
// named axioms over the relational views of package exec, together with the
// per-model metadata the synthesizer needs: the instruction vocabulary and
// the applicable instruction relaxations (paper Table 2).
//
// Implemented models: SC, TSO (paper Fig. 4), Power and ARMv7 (the
// herding-cats formulation the paper uses, Fig. 15), a proposed
// ARMv8-flavored model with LDAR/STLR opcodes (the paper's DMO example,
// §3.2), SCC (paper Fig. 17, with the sc-order treatment generalizing
// Fig. 19), an RC11-flavored C/C++ model, and an HSA-like scoped variant
// of SCC exercising scope demotion.
package memmodel

import (
	"fmt"
	"sort"

	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/relation"
)

// Axiom is one named constraint of a memory model. Holds reports whether
// the axiom is satisfied by the view. Views carry any perturbation
// themselves, so the same predicate serves both the forbidden-outcome check
// and the perturbed-model validity check of the minimality criterion.
type Axiom struct {
	Name  string
	Holds func(v *exec.View) bool
}

// Axioms shared by several builtin models, each defined once. Builtin
// axioms evaluate on a pooled view without allocating (DESIGN.md §10):
// they test composed relations with the read-only kernels of package
// relation instead of building them.
var (
	// scPerLoc is acyclic(com ∪ po_loc): coherence per location.
	scPerLoc = Axiom{Name: "sc_per_loc", Holds: func(v *exec.View) bool {
		return relation.AcyclicUnion(v.Com(), v.POLoc())
	}}
	// rmwAtomicityExt is empty(fre;coe ∩ rmw): no external write comes
	// between the read and the write of an RMW pair.
	rmwAtomicityExt = Axiom{Name: "rmw_atomicity", Holds: func(v *exec.View) bool {
		return !v.FRE().JoinMeets(v.COE(), v.RMW())
	}}
	// rmwAtomicity is empty(fr;co ∩ rmw) (paper Fig. 17): no write at all
	// comes between the read and the write of an RMW pair.
	rmwAtomicity = Axiom{Name: "rmw_atomicity", Holds: func(v *exec.View) bool {
		return !v.FR().JoinMeets(v.CO(), v.RMW())
	}}
)

// pool points each of rs at an empty relation over n atoms. The relations
// share one backing array, so a bundle's scratch costs two allocations.
func pool(n int, rs ...*relation.Rel) {
	for i, r := range relation.NewMany(n, len(rs)) {
		*rs[i] = r
	}
}

// Vocab describes the instruction alphabet available to the synthesizer for
// a model.
type Vocab struct {
	// Ops are the single-instruction templates (address to be filled in
	// by the synthesizer; fences ignore it).
	Ops []litmus.Op
	// RMWOps are atomic read-modify-write pair templates.
	RMWOps [][2]litmus.Op
	// DepTypes are the dependency flavors the model distinguishes; empty
	// for models without syntactic dependencies.
	DepTypes []litmus.DepType
	// Scopes are the synchronization scopes; empty for non-scoped models.
	Scopes []litmus.Scope
	// UsesSC requests enumeration of total orders over FSC fences.
	UsesSC bool
}

// RelaxSpec describes which instruction relaxations a model admits
// (paper §3.2–3.3, Table 2). RI applies to every model unconditionally.
type RelaxSpec struct {
	// DemoteOrder returns the one-step weaker memory orders of a read or
	// write event (DMO); nil/empty when not demotable.
	DemoteOrder func(e litmus.Event) []litmus.Order
	// DemoteFence returns the one-step weaker fence kinds of a fence
	// event (DF).
	DemoteFence func(e litmus.Event) []litmus.FenceKind
	// DemoteScope returns the one-step narrower scopes of an event (DS).
	DemoteScope func(e litmus.Event) []litmus.Scope
	// RD enables Remove Dependency.
	RD bool
	// DRMW enables Decompose RMW.
	DRMW bool
}

// Model is an axiomatic memory consistency model.
type Model interface {
	// Name returns the model's short name ("tso", "power", ...).
	Name() string
	// Axioms returns the model's axioms in a stable order.
	Axioms() []Axiom
	// Vocab returns the synthesis vocabulary.
	Vocab() Vocab
	// Relax returns the relaxation applicability spec.
	Relax() RelaxSpec
}

// Valid reports whether the execution behind v satisfies every axiom of m.
func Valid(m Model, v *exec.View) bool {
	for _, a := range m.Axioms() {
		if !a.Holds(v) {
			return false
		}
	}
	return true
}

// AxiomByName returns the named axiom of m.
func AxiomByName(m Model, name string) (Axiom, error) {
	for _, a := range m.Axioms() {
		if a.Name == name {
			return a, nil
		}
	}
	return Axiom{}, fmt.Errorf("memmodel: model %s has no axiom %q", m.Name(), name)
}

// Applications enumerates every instruction-relaxation application to t
// that m admits: the domain the minimality criterion quantifies over.
func Applications(m Model, t *litmus.Test) []exec.Perturb {
	spec := m.Relax()
	var apps []exec.Perturb

	hasOutgoingDep := make([]bool, len(t.Events))
	for _, d := range t.Deps {
		hasOutgoingDep[d.From] = true
	}
	for _, p := range t.RMW {
		hasOutgoingDep[p[0]] = true // implicit data dependency of the pair
	}

	for _, e := range t.Events {
		apps = append(apps, exec.Perturb{Kind: exec.PRI, Event: e.ID})
		switch e.Kind {
		case litmus.KRead, litmus.KWrite:
			if spec.DemoteOrder != nil {
				for _, o := range spec.DemoteOrder(e) {
					apps = append(apps, exec.Perturb{Kind: exec.PDMO, Event: e.ID, NewOrder: o})
				}
			}
		case litmus.KFence:
			if spec.DemoteFence != nil {
				for _, f := range spec.DemoteFence(e) {
					apps = append(apps, exec.Perturb{Kind: exec.PDF, Event: e.ID, NewFence: f})
				}
			}
		}
		if spec.DemoteScope != nil {
			for _, s := range spec.DemoteScope(e) {
				apps = append(apps, exec.Perturb{Kind: exec.PDS, Event: e.ID, NewScope: s})
			}
		}
		if spec.RD && hasOutgoingDep[e.ID] {
			apps = append(apps, exec.Perturb{Kind: exec.PRD, Event: e.ID})
		}
	}
	if spec.DRMW {
		for _, p := range t.RMW {
			apps = append(apps, exec.Perturb{Kind: exec.PDRMW, Event: p[0]})
		}
	}
	return apps
}

// RelaxationTags returns the names of the relaxations applicable to model m
// in principle (paper Table 2 row), in a stable order.
func RelaxationTags(m Model) []string {
	spec := m.Relax()
	tags := map[string]bool{"RI": true}
	// Probe the spec functions over the model's own vocabulary.
	for _, op := range m.Vocab().Ops {
		e := eventFromOp(op, 0)
		if spec.DemoteOrder != nil && e.Kind != litmus.KFence && len(spec.DemoteOrder(e)) > 0 {
			tags["DMO"] = true
		}
		if spec.DemoteFence != nil && e.Kind == litmus.KFence && len(spec.DemoteFence(e)) > 0 {
			tags["DF"] = true
		}
		if spec.DemoteScope != nil && len(spec.DemoteScope(e)) > 0 {
			tags["DS"] = true
		}
	}
	if spec.RD && len(m.Vocab().DepTypes) > 0 {
		tags["RD"] = true
	}
	if spec.DRMW && len(m.Vocab().RMWOps) > 0 {
		tags["DRMW"] = true
	}
	order := []string{"RI", "DRMW", "DF", "DMO", "RD", "DS"}
	var out []string
	for _, tag := range order {
		if tags[tag] {
			out = append(out, tag)
		}
	}
	return out
}

func eventFromOp(op litmus.Op, id int) litmus.Event {
	// The builder is the only constructor of events from ops; replicate
	// the mapping for metadata probing by building a one-op test.
	t := litmus.New("probe", [][]litmus.Op{{op}})
	e := t.Events[0]
	e.ID = id
	return e
}

// All returns every built-in model, sorted by name.
func All() []Model {
	ms := []Model{SC(), TSO(), Power(), ARMv7(), ARMv8(), SCC(), C11(), HSA()}
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name() < ms[j].Name() })
	return ms
}

// ByName returns the model with the given name: models registered in the
// Default registry first, then built-ins. An unknown name's error lists
// every available model.
func ByName(name string) (Model, error) {
	return Default.ByName(name)
}

// Define constructs a custom memory model from its axioms, vocabulary, and
// relaxation spec — the paper's promise that the methodology applies to
// "any axiomatically-specified memory model".
func Define(name string, axioms []Axiom, vocab Vocab, relax RelaxSpec) Model {
	return &model{name: name, axioms: axioms, vocab: vocab, relax: relax}
}

// model is the shared trivial implementation of Model.
type model struct {
	name   string
	axioms []Axiom
	vocab  Vocab
	relax  RelaxSpec
}

func (m *model) Name() string     { return m.name }
func (m *model) Axioms() []Axiom  { return m.axioms }
func (m *model) Vocab() Vocab     { return m.vocab }
func (m *model) Relax() RelaxSpec { return m.relax }
