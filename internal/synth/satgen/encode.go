package satgen

import (
	"fmt"

	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/relation"
	"memsynth/internal/rml"
)

// dyn carries the dynamic relation expressions of one (possibly perturbed)
// execution view: axiom encoders combine them with the static relations of
// the view, mirroring how the axiom's Holds predicate reads exec.View.
type dyn struct {
	v          *exec.View
	rf, co, fr rml.Expr
}

// axiomEncoder translates one named axiom into an rml formula over d. Each
// encoder must be the exact relational transcription of the corresponding
// Holds predicate in internal/memmodel; the differential tests compare the
// two, so a mismatch in either shows up as a disagreement.
type axiomEncoder func(d dyn) rml.Formula

// encoders registers the native encodings per model and axiom name.
// Candidates additionally requires the model to be a built-in, so a
// same-named redefinition can never be routed through these tables.
var encoders = map[string]map[string]axiomEncoder{
	"sc": {
		"rmw_atomicity": encRMWAtomicity,
		"sc_order":      encSCOrder,
	},
	"tso": {
		"sc_per_loc":    encSCPerLoc,
		"rmw_atomicity": encRMWAtomicity,
		"causality":     encCausality,
	},
}

// encRMWAtomicity: empty(fre;coe & rmw).
func encRMWAtomicity(d dyn) rml.Formula {
	ext := rml.Const(d.v.Ext())
	fre := rml.Intersect(d.fr, ext)
	coe := rml.Intersect(d.co, ext)
	return rml.Empty(rml.Intersect(rml.Join(fre, coe), rml.Const(d.v.RMW())))
}

// encSCOrder: acyclic(rf | co | fr | po).
func encSCOrder(d dyn) rml.Formula {
	return rml.Acyclic(rml.Union(d.rf, d.co, d.fr, rml.Const(d.v.PO())))
}

// encSCPerLoc: acyclic(rf | co | fr | po_loc).
func encSCPerLoc(d dyn) rml.Formula {
	return rml.Acyclic(rml.Union(d.rf, d.co, d.fr, rml.Const(d.v.POLoc())))
}

// encCausality: acyclic(rfe | co | fr | ppo | fence) with
// ppo = po - W×R and fence the mfence ordering.
func encCausality(d dyn) rml.Formula {
	n := d.v.N()
	ppo := d.v.PO().Minus(relation.Cross(n, d.v.Writes(), d.v.Reads()))
	rfe := rml.Intersect(d.rf, rml.Const(d.v.Ext()))
	return rml.Acyclic(rml.Union(
		rfe, d.co, d.fr,
		rml.Const(ppo), rml.Const(d.v.FenceRel(litmus.FMFence))))
}

// progEncoding is the compiled-to-rml form of one program's minimality
// query, plus the enumeration metadata extraction and ranking need.
type progEncoding struct {
	t            *litmus.Test
	prob         *rml.Problem
	reads        []int   // read event IDs in event order
	writesByAddr [][]int // write event IDs per address in event order
}

// encodeProgram builds the per-program minimality query: free rf and co
// relations constrained to well-formed executions, the conjunction of the
// model's axioms negated on the base view (the outcome is forbidden), and
// the conjunction asserted on every perturbed view (every strictly-weaker
// relaxation observes it). Models of the problem are exactly the minimal
// (program, outcome) witnesses.
func encodeProgram(m memmodel.Model, table map[string]axiomEncoder, t *litmus.Test) (*progEncoding, error) {
	n := len(t.Events)
	base := exec.NewStaticCtx(t, exec.NoPerturb).NewView()
	p := rml.NewProblem(n)

	enc := &progEncoding{t: t, prob: p, writesByAddr: make([][]int, t.NumAddrs())}
	for _, e := range t.Events {
		switch e.Kind {
		case litmus.KRead:
			enc.reads = append(enc.reads, e.ID)
		case litmus.KWrite:
			enc.writesByAddr[e.Addr] = append(enc.writesByAddr[e.Addr], e.ID)
		}
	}

	// rf ⊆ (W×R ∩ sameAddr), co ⊆ (W×W ∩ sameAddr) minus the diagonal.
	writes, reads, sameAddr := base.Writes(), base.Reads(), base.SameAddr()
	rfUpper := relation.Cross(n, writes, reads).Intersect(sameAddr)
	coUpper := relation.Cross(n, writes, writes).Intersect(sameAddr).Minus(relation.Identity(n))
	p.Declare("rf", relation.New(n), rfUpper)
	p.Declare("co", relation.New(n), coUpper)
	rf, co := rml.Var("rf"), rml.Var("co")

	// Well-formedness: each read has at most one rf source (none means the
	// initial value), and co is a strict total order per address —
	// irreflexive by its upper bound, total and antisymmetric pairwise,
	// transitive globally (the join cannot leave an address).
	for _, r := range enc.reads {
		ws := enc.writesByAddr[t.Events[r].Addr]
		for i := 0; i < len(ws); i++ {
			for j := i + 1; j < len(ws); j++ {
				p.Fact(rml.Not(rml.And(rml.In(ws[i], r, rf), rml.In(ws[j], r, rf))))
			}
		}
	}
	for _, ws := range enc.writesByAddr {
		for i := 0; i < len(ws); i++ {
			for j := i + 1; j < len(ws); j++ {
				p.Fact(rml.Or(rml.In(ws[i], ws[j], co), rml.In(ws[j], ws[i], co)))
				p.Fact(rml.Not(rml.And(rml.In(ws[i], ws[j], co), rml.In(ws[j], ws[i], co))))
			}
		}
	}
	p.Fact(rml.Subset(rml.Join(co, co), co))

	// fr is derived: a read is fr-before every same-address write except
	// its source and the source's co-predecessors (for an initial read the
	// subtracted join is empty, leaving all same-address writes) — the
	// relational form of View.Reset's fr construction. co is transitive, so
	// Reflexive(~co) is its reflexive-transitive closure without the
	// closure circuit.
	// Each derived relation is Define'd so its circuit — a join is n³
	// gates — is built once, not once per axiom occurrence across the
	// base view and every application.
	rwSame := relation.Cross(n, reads, writes).Intersect(sameAddr)
	fr := p.Define("fr", rml.Minus(rml.Const(rwSame),
		rml.Join(rml.Transpose(rf), rml.Reflexive(rml.Transpose(co)))))

	conj := func(d dyn) rml.Formula {
		axs := make([]rml.Formula, 0, len(m.Axioms()))
		for _, a := range m.Axioms() {
			axs = append(axs, table[a.Name](d))
		}
		return rml.And(axs...)
	}

	// The outcome is forbidden on the base view...
	p.Fact(rml.Not(conj(dyn{v: base, rf: rf, co: co, fr: fr})))

	// ...and observable under every admitted relaxation. The perturbed
	// rf/co/fr mirror View.Reset under the same execution: restriction to
	// the live events (restricting the transitive total co preserves both
	// properties), with reads orphaned by a removed source write losing
	// their fr edges too.
	for idx, app := range memmodel.Applications(m, t) {
		va := exec.NewStaticCtx(t, app).NewView()
		d := dyn{v: va}
		switch app.Kind {
		case exec.PDRMW:
			// Only the static rmw pairing changes; rf, co, fr carry over.
			d.rf, d.co, d.fr = rf, co, fr
		case exec.PRI:
			live := va.Live()
			liveC := rml.Const(relation.Cross(n, live, live))
			d.rf = p.Define(fmt.Sprintf("rf@%d", idx), rml.Intersect(rf, liveC))
			d.co = p.Define(fmt.Sprintf("co@%d", idx), rml.Intersect(co, liveC))
			frp := rml.Expr(rml.Const(relation.Cross(n, va.Reads(), va.Writes()).Intersect(va.SameAddr())))
			if t.Events[app.Event].Kind == litmus.KWrite {
				fromRemoved := relation.New(n)
				fromRemoved.UnionRow(app.Event, relation.UniverseSet(n))
				orphanRows := rml.Join(
					rml.Transpose(rml.Intersect(rf, rml.Const(fromRemoved))),
					rml.Const(relation.Full(n)))
				frp = rml.Minus(frp, orphanRows)
			}
			d.fr = p.Define(fmt.Sprintf("fr@%d", idx), rml.Minus(frp,
				rml.Join(rml.Transpose(d.rf), rml.Reflexive(rml.Transpose(d.co)))))
		default:
			return nil, fmt.Errorf("satgen: no encoding for perturbation %v", app)
		}
		p.Fact(conj(d))
	}
	return enc, nil
}
