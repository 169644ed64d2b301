package memmodel

import (
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/relation"
)

// sccStatic holds the execution-independent half of the SCC/HSA derivation
// (cached per static context via View.StaticMemo) together with pooled
// scratch for the per-execution sync and causality computations.
type sccStatic struct {
	releasers, acquirers relation.Set
	prefix, suffix       relation.Rel
	poRT                 relation.Rel

	// scratch (per-execution values, pooled across executions)
	chain, sync, cause, tmp relation.Rel
}

func sccStaticOf(v *exec.View, scoped bool) *sccStatic {
	key := "scc.static"
	if scoped {
		key = "scc.scoped.static"
	}
	return v.StaticMemo(key, func() any {
		n := v.N()
		fences := v.Fences()
		releases := v.Where(func(id int) bool {
			return v.Writes().Has(id) && v.OrderOf(id) == litmus.ORelease
		})
		acquires := v.Where(func(id int) bool {
			return v.Reads().Has(id) && v.OrderOf(id) == litmus.OAcquire
		})
		s := &sccStatic{
			releasers: releases.Union(fences),
			acquirers: acquires.Union(fences),
		}

		iden := relation.IdentityOn(n, v.Live())
		s.prefix = iden.
			Union(v.PO().RestrictDomain(fences)).
			Union(v.POLoc().RestrictDomain(releases))
		s.suffix = iden.
			Union(v.PO().RestrictRange(fences)).
			Union(v.POLoc().RestrictRange(acquires))
		s.poRT = v.PO().ReflexiveClosure()

		pool(n, &s.chain, &s.sync, &s.cause, &s.tmp)
		return s
	}).(*sccStatic)
}

// sccSync computes the SCC synchronization relation of paper Fig. 17:
//
//	prefix = iden + (Fence <: po) + (Release <: po_loc)
//	suffix = iden + (po :> Fence) + (po_loc :> Acquire)
//	sync   = Releasers <: prefix.^(rf+rmw).suffix :> Acquirers
//
// where Releasers are release writes and fences, and Acquirers are acquire
// reads and fences. When scoped is set, sync edges additionally require the
// endpoints' scopes to mutually cover each other (the HSA-like variant).
// The result lives in the static bundle's pooled sync buffer and is
// memoized per execution (sync does not depend on the sc order).
func sccSync(v *exec.View, scoped bool) relation.Rel {
	key := "scc.sync"
	if scoped {
		key = "scc.scoped.sync"
	}
	return *v.Memo(key, func() any {
		s := sccStaticOf(v, scoped)
		s.chain.CopyFrom(v.RF())
		s.chain.UnionWith(v.RMW())
		s.chain.CloseIn()
		s.prefix.JoinInto(s.chain, s.tmp)
		s.tmp.JoinInto(s.suffix, s.sync)
		s.sync.RestrictIn(s.releasers, s.acquirers)
		if scoped {
			s.sync.IntersectWith(v.ScopeCompatible())
		}
		return &s.sync
	}).(*relation.Rel)
}

// sccCause computes cause = *po.(sc + sync).*po. For the scoped variant
// the sc order is additionally restricted to scope-compatible fence pairs.
// The result lives in the static bundle's pooled cause buffer, valid until
// the next sccCause call on the same context.
func sccCause(v *exec.View, scoped bool) relation.Rel {
	s := sccStaticOf(v, scoped)
	sync := sccSync(v, scoped)
	s.tmp.CopyFrom(v.SCRel())
	if scoped {
		s.tmp.IntersectWith(v.ScopeCompatible())
	}
	s.tmp.UnionWith(sync)
	s.poRT.JoinInto(s.tmp, s.cause)
	s.cause.JoinInto(s.poRT, s.cause)
	return s.cause
}

// sccCausalityHolds checks irreflexive(com* ; ^cause).
func sccCausalityHolds(v *exec.View, scoped bool) bool {
	s := sccStaticOf(v, scoped)
	s.tmp.CopyFrom(sccCause(v, scoped))
	s.tmp.CloseIn()
	if !s.tmp.Irreflexive() {
		return false // cheap early out: com* includes the identity
	}
	s.chain.CopyFrom(v.Com())
	s.chain.ReflexiveCloseIn()
	return s.chain.JoinIrreflexive(s.tmp)
}

func sccAxioms(scoped bool) []Axiom {
	return []Axiom{
		scPerLoc,
		{
			Name: "no_thin_air",
			Holds: func(v *exec.View) bool {
				return relation.AcyclicUnion(v.RF(), v.DepAll())
			},
		},
		rmwAtomicity,
		{
			// The sc order this axiom consults is auxiliary; package
			// minimal quantifies over all sc orders (the general form of
			// the paper's Fig. 19 lone-edge workaround).
			Name: "causality",
			Holds: func(v *exec.View) bool {
				return sccCausalityHolds(v, scoped)
			},
		},
	}
}

// SCC returns the Streamlined Causal Consistency model the paper introduces
// (§6.3, Fig. 17): acquire/release instructions, acquire-release and
// sequentially-consistent fences (the latter totally ordered by sc), one
// generic dependency flavor, and no preserved-program-order machinery.
func SCC() Model {
	return &model{
		name:   "scc",
		axioms: sccAxioms(false),
		vocab: Vocab{
			Ops: []litmus.Op{
				litmus.R(0), litmus.Racq(0),
				litmus.W(0), litmus.Wrel(0),
				litmus.F(litmus.FAcqRel), litmus.F(litmus.FSC),
			},
			RMWOps: [][2]litmus.Op{
				{litmus.R(0), litmus.W(0)},
				{litmus.Racq(0), litmus.Wrel(0)},
			},
			DepTypes: []litmus.DepType{litmus.DepData},
			UsesSC:   true,
		},
		relax: RelaxSpec{
			DemoteOrder: sccDemoteOrder,
			DemoteFence: sccDemoteFence,
			RD:          true, // dependencies feed the no-thin-air axiom only
			DRMW:        true,
		},
	}
}

func sccDemoteOrder(e litmus.Event) []litmus.Order {
	switch e.Order {
	case litmus.OAcquire, litmus.ORelease:
		return []litmus.Order{litmus.OPlain}
	}
	return nil
}

func sccDemoteFence(e litmus.Event) []litmus.FenceKind {
	if e.Fence == litmus.FSC {
		return []litmus.FenceKind{litmus.FAcqRel}
	}
	return nil
}

// HSA returns the scoped variant of SCC standing in for the HSA/OpenCL
// scoped models of paper Table 2: synchronizing instructions carry a scope
// (workgroup or system), synchronization requires mutually inclusive
// scopes, and the Demote Scope relaxation applies. Plain loads and stores
// are unscoped, as in HSA.
func HSA() Model {
	wg, sys := litmus.ScopeWG, litmus.ScopeSys
	return &model{
		name:   "hsa",
		axioms: sccAxioms(true),
		vocab: Vocab{
			Ops: []litmus.Op{
				litmus.R(0), litmus.W(0),
				litmus.Racq(0).WithScope(wg), litmus.Racq(0).WithScope(sys),
				litmus.Wrel(0).WithScope(wg), litmus.Wrel(0).WithScope(sys),
				litmus.F(litmus.FAcqRel).WithScope(wg), litmus.F(litmus.FAcqRel).WithScope(sys),
				litmus.F(litmus.FSC).WithScope(wg), litmus.F(litmus.FSC).WithScope(sys),
			},
			RMWOps: [][2]litmus.Op{
				{litmus.R(0), litmus.W(0)},
			},
			DepTypes: []litmus.DepType{litmus.DepData},
			Scopes:   []litmus.Scope{wg, sys},
			UsesSC:   true,
		},
		relax: RelaxSpec{
			DemoteOrder: sccDemoteOrder,
			DemoteFence: sccDemoteFence,
			DemoteScope: func(e litmus.Event) []litmus.Scope {
				if e.Scope == sys {
					return []litmus.Scope{wg}
				}
				return nil
			},
			RD:   true,
			DRMW: true,
		},
	}
}
