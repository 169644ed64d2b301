package memmodel

import (
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/relation"
)

// c11Static holds the execution-independent half of the C/C++ derivation
// (cached per static context via View.StaticMemo) together with the pooled
// scratch the per-execution half writes into; see powerStatic for why
// sharing the scratch across executions is safe.
type c11Static struct {
	rs0    relation.Rel // [W] ∪ [W];po_loc;[W]
	swPre  relation.Rel // [relW] ∪ [relF];po;[W]
	swPost relation.Rel // [acqR] ∪ [R];po;[acqF]
	esc    relation.Set // E_sc: seq_cst reads and writes
	fsc    relation.Set // F_sc: seq_cst fences

	// per-execution values, pooled across executions
	rs, sw, hb, eco          relation.Rel
	scb, pre, post, psc, tmp relation.Rel
}

func c11StaticOf(v *exec.View) *c11Static {
	return v.StaticMemo("c11.static", func() any {
		reads, writes := v.Reads(), v.Writes()
		s := &c11Static{
			esc: v.Where(func(id int) bool {
				return (reads.Has(id) || writes.Has(id)) && v.OrderOf(id) == litmus.OSC
			}),
			fsc: v.FencesOfKind(litmus.FSC),
		}
		pool(v.N(), &s.rs0, &s.swPre, &s.swPost,
			&s.rs, &s.sw, &s.hb, &s.eco, &s.scb, &s.pre, &s.post, &s.psc, &s.tmp)

		s.rs0.CopyFrom(v.POLoc())
		s.rs0.RestrictIn(writes, writes)
		s.rs0.UnionIdentity(writes)

		s.swPre.CopyFrom(v.PO())
		s.swPre.RestrictIn(v.FencesOfKind(litmus.FRel, litmus.FAcqRel, litmus.FSC), writes)
		s.swPre.UnionIdentity(v.Where(func(id int) bool {
			return writes.Has(id) && orderAtLeastRelease(v.OrderOf(id))
		}))

		s.swPost.CopyFrom(v.PO())
		s.swPost.RestrictIn(reads, v.FencesOfKind(litmus.FAcq, litmus.FAcqRel, litmus.FSC))
		s.swPost.UnionIdentity(v.Where(func(id int) bool {
			return reads.Has(id) && orderAtLeastAcquire(v.OrderOf(id))
		}))
		return s
	}).(*c11Static)
}

// deriveC11 computes happens-before and extended coherence order for the
// RC11-flavored C/C++ model into the static bundle's pooled hb and eco.
// Following the paper (§6.4) we use no initialization events; our fr
// definition already treats initial reads as coherence-first. Release
// sequences, synchronizes-with (including fence synchronization), and hb
// follow RC11 (Lahav et al.), which repairs the Batty et al. formulation
// the paper builds on while keeping the same axiom structure.
func deriveC11(v *exec.View) *c11Static {
	return v.Memo("c11", func() any {
		s := c11StaticOf(v)

		// rs = [W]; po|loc?; [W]; (rf;rmw)*
		v.RF().JoinInto(v.RMW(), s.tmp)
		s.tmp.ReflexiveCloseIn()
		s.rs0.JoinInto(s.tmp, s.rs)

		// sw = [relW ∪ relF]; ([F];po)?; rs; rf; [R]; (po;[F_acq])?; [acqR ∪ acqF]
		s.swPre.JoinInto(s.rs, s.sw)
		s.sw.JoinInto(v.RF(), s.sw)
		s.sw.JoinInto(s.swPost, s.sw)

		// hb = (po ∪ sw)⁺, eco = com⁺
		s.hb.CopyFrom(v.PO())
		s.hb.UnionWith(s.sw)
		s.hb.CloseIn()
		s.eco.CopyFrom(v.Com())
		s.eco.CloseIn()
		return s
	}).(*c11Static)
}

func orderAtLeastRelease(o litmus.Order) bool {
	return o == litmus.ORelease || o == litmus.OAcqRel || o == litmus.OSC
}

func orderAtLeastAcquire(o litmus.Order) bool {
	return o == litmus.OAcquire || o == litmus.OAcqRel || o == litmus.OSC
}

// C11 returns the C/C++ memory model in an RC11-flavored axiomatisation:
// coherence (irreflexive hb;eco?), RMW atomicity, a partial-SC condition
// over seq_cst accesses and fences, and a no-thin-air axiom phrased as
// acyclic(po ∪ rf). Out-of-thin-air behavior is not fully axiomatisable
// (paper §3.3); like the paper we use the dependency-free conservative
// phrasing, so Remove Dependency does not apply (paper Table 2 footnote).
func C11() Model {
	return &model{
		name: "c11",
		axioms: []Axiom{
			{
				Name: "coherence",
				// irreflexive(hb;eco?)
				Holds: func(v *exec.View) bool {
					d := deriveC11(v)
					return d.hb.Irreflexive() && d.hb.JoinIrreflexive(d.eco)
				},
			},
			rmwAtomicity,
			{
				Name: "sc",
				Holds: func(v *exec.View) bool {
					return c11PSC(v).Acyclic()
				},
			},
			{
				Name: "no_thin_air",
				Holds: func(v *exec.View) bool {
					return relation.AcyclicUnion(v.PO(), v.RF())
				},
			},
		},
		vocab: Vocab{
			Ops: []litmus.Op{
				litmus.R(0), litmus.Racq(0), litmus.Rsc(0),
				litmus.W(0), litmus.Wrel(0), litmus.Wsc(0),
				litmus.F(litmus.FAcq), litmus.F(litmus.FRel),
				litmus.F(litmus.FAcqRel), litmus.F(litmus.FSC),
			},
			RMWOps: [][2]litmus.Op{
				{litmus.R(0), litmus.W(0)},
				{litmus.Racq(0), litmus.Wrel(0)},
			},
		},
		relax: RelaxSpec{
			DemoteOrder: c11DemoteOrder,
			DemoteFence: c11DemoteFence,
			DRMW:        true,
		},
	}
}

// c11PSC computes the RC11 partial-SC relation into the static bundle's
// pooled psc:
//
//	scb      = po ∪ po;hb;po ∪ hb|loc ∪ co ∪ fr
//	psc_base = ([E_sc] ∪ [F_sc];hb?) ; scb ; ([E_sc] ∪ hb?;[F_sc])
//	psc_f    = [F_sc] ; (hb ∪ hb;eco;hb) ; [F_sc]
//	psc      = psc_base ∪ psc_f
//
// Every psc edge starts at an E_sc or F_sc event, so psc is empty when the
// program has neither.
func c11PSC(v *exec.View) relation.Rel {
	s := deriveC11(v)
	if s.esc.Union(s.fsc).IsEmpty() {
		s.psc.Clear()
		return s.psc
	}
	po, all := v.PO(), relation.UniverseSet(v.N())

	po.JoinInto(s.hb, s.tmp)
	s.tmp.JoinInto(po, s.scb)
	s.scb.UnionWith(po)
	s.tmp.CopyFrom(s.hb)
	s.tmp.IntersectWith(v.SameAddr())
	s.scb.UnionWith(s.tmp)
	s.scb.UnionWith(v.CO())
	s.scb.UnionWith(v.FR())

	s.pre.CopyFrom(s.hb)
	s.pre.RestrictIn(s.fsc, all)
	s.pre.UnionIdentity(s.esc.Union(s.fsc))
	s.post.CopyFrom(s.hb)
	s.post.RestrictIn(all, s.fsc)
	s.post.UnionIdentity(s.esc.Union(s.fsc))
	s.pre.JoinInto(s.scb, s.tmp)
	s.tmp.JoinInto(s.post, s.psc)

	s.hb.JoinInto(s.eco, s.tmp)
	s.tmp.JoinInto(s.hb, s.tmp)
	s.tmp.UnionWith(s.hb)
	s.tmp.RestrictIn(s.fsc, s.fsc)
	s.psc.UnionWith(s.tmp)
	return s.psc
}

func c11DemoteOrder(e litmus.Event) []litmus.Order {
	switch e.Kind {
	case litmus.KRead:
		switch e.Order {
		case litmus.OSC:
			return []litmus.Order{litmus.OAcquire}
		case litmus.OAcquire:
			return []litmus.Order{litmus.OPlain}
		}
	case litmus.KWrite:
		switch e.Order {
		case litmus.OSC:
			return []litmus.Order{litmus.ORelease}
		case litmus.ORelease:
			return []litmus.Order{litmus.OPlain}
		}
	}
	return nil
}

func c11DemoteFence(e litmus.Event) []litmus.FenceKind {
	switch e.Fence {
	case litmus.FSC:
		return []litmus.FenceKind{litmus.FAcqRel}
	case litmus.FAcqRel:
		return []litmus.FenceKind{litmus.FAcq, litmus.FRel}
	}
	return nil
}
