package memmodel

import (
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/relation"
)

// SC returns Lamport sequential consistency: a single total order
// constraint over po and communication, plus RMW atomicity.
func SC() Model {
	return &model{
		name: "sc",
		axioms: []Axiom{
			rmwAtomicityExt,
			{
				Name: "sc_order",
				Holds: func(v *exec.View) bool {
					return relation.AcyclicUnion(v.Com(), v.PO())
				},
			},
		},
		vocab: Vocab{
			Ops: []litmus.Op{litmus.R(0), litmus.W(0)},
			RMWOps: [][2]litmus.Op{
				{litmus.R(0), litmus.W(0)},
			},
		},
		relax: RelaxSpec{DRMW: true},
	}
}

// TSO returns the total store ordering model of paper Fig. 4 (the x86/SPARC
// model), with axioms sc_per_loc, rmw_atomicity, and causality.
func TSO() Model {
	return &model{
		name: "tso",
		axioms: []Axiom{
			scPerLoc,
			rmwAtomicityExt,
			{
				// acyclic[rfe + co + fr + ppo + fence]
				Name: "causality",
				Holds: func(v *exec.View) bool {
					return relation.AcyclicUnion(tsoPPOFence(v), v.RFE(), v.CO(), v.FR())
				},
			},
		},
		vocab: Vocab{
			Ops: []litmus.Op{
				litmus.R(0), litmus.W(0), litmus.F(litmus.FMFence),
			},
			RMWOps: [][2]litmus.Op{
				{litmus.R(0), litmus.W(0)},
			},
		},
		relax: RelaxSpec{DRMW: true},
	}
}

// tsoPPOFence returns TSO's execution-independent order ppo ∪ fence, with
// ppo = po - (Write->Read) and fence the mfence ordering, cached per
// static context.
func tsoPPOFence(v *exec.View) relation.Rel {
	return v.StaticMemo("tso.static", func() any {
		r := v.PO().Minus(relation.Cross(v.N(), v.Writes(), v.Reads()))
		r.UnionWith(v.FenceRel(litmus.FMFence))
		return r
	}).(relation.Rel)
}
