package memmodel

import (
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/relation"
)

// powerArch selects one of the three models built on the herding-cats
// Power skeleton (Alglave et al. 2014, as used by the paper's Fig. 15).
type powerArch uint8

const (
	archPower powerArch = iota
	archARMv7
	archARMv8
)

// powerMemoKeys are the StaticMemo and Memo keys of each arch's bundle.
var powerMemoKeys = [...][2]string{
	archPower: {"power.static", "power"},
	archARMv7: {"armv7.static", "armv7"},
	archARMv8: {"armv8.static", "armv8"},
}

// powerStatic holds the execution-independent half of the Power-skeleton
// derivation (cached per static context via View.StaticMemo) together with
// the pooled scratch buffers the per-execution derivation writes into. One
// derivation runs at a time per context (views are single-threaded), so
// sharing the scratch across executions is safe and keeps the hot fixpoint
// allocation-free.
type powerStatic struct {
	rr, rw, ww relation.Rel
	cc0        relation.Rel // dp ∪ ctrl ∪ addrPo [∪ po_loc on Power]
	ii0s       relation.Rel // static part of ii0: dp
	ci0s       relation.Rel // static part of ci0: ctrl+isync
	ffence     relation.Rel
	fences     relation.Rel

	// per-execution results, valid within one Reset window
	ppo, hb, hbRT, prop relation.Rel

	// scratch for derive (per-execution values, pooled across executions)
	ii0, ci0           relation.Rel
	ii, ic, ci, cc     relation.Rel
	nii, nic, nci, ncc relation.Rel
	tmp, chain         relation.Rel
	propBase, comRT    relation.Rel
}

func powerStaticOf(v *exec.View, arch powerArch) *powerStatic {
	return v.StaticMemo(powerMemoKeys[arch][0], func() any {
		n := v.N()
		s := &powerStatic{
			rr: relation.Cross(n, v.Reads(), v.Reads()),
			rw: relation.Cross(n, v.Reads(), v.Writes()),
			ww: relation.Cross(n, v.Writes(), v.Writes()),
		}

		dp := v.Dep(litmus.DepAddr).Union(v.Dep(litmus.DepData))
		ctrl := v.Dep(litmus.DepCtrl)
		addrPo := v.Dep(litmus.DepAddr).Join(v.PO())
		// ctrl+isync: control dependencies refined through an isync
		// fence order the read before everything po-after the fence.
		isync := v.FencesOfKind(litmus.FISync)
		s.ii0s = dp
		s.ci0s = ctrl.RestrictRange(isync).Join(v.PO())
		s.cc0 = dp.Union(ctrl).Union(addrPo)
		if arch == archPower {
			s.cc0.UnionWith(v.POLoc())
		}

		s.ffence = v.FenceRel(litmus.FSync)
		switch arch {
		case archPower:
			wr := relation.Cross(n, v.Writes(), v.Reads())
			s.fences = v.FenceRel(litmus.FLwSync).Minus(wr)
			s.fences.UnionWith(s.ffence)
		case archARMv7:
			s.fences = s.ffence
		case archARMv8:
			s.fences = armv8Order(v)
			s.fences.UnionWith(s.ffence)
		}

		pool(n, &s.ppo, &s.hb, &s.hbRT, &s.prop,
			&s.ii0, &s.ci0, &s.ii, &s.ic, &s.ci, &s.cc,
			&s.nii, &s.nic, &s.nci, &s.ncc, &s.tmp, &s.chain,
			&s.propBase, &s.comRT)
		return s
	}).(*powerStatic)
}

// derivePower computes preserved program order (the fixed point of the four
// mutually recursive relations ii/ic/ci/cc), hb, and prop. The arch selects
// the variant: ARMv7 and ARMv8 have no lwsync and a cc0 without po_loc
// (reflecting the ARMv7 subtleties the formalization leaves out), and ARMv8
// folds its acquire/release edges into the fences. The static half comes
// from powerStaticOf; the dynamic half is recomputed into that bundle's
// pooled scratch, so a steady-state derivation does not allocate.
func derivePower(v *exec.View, arch powerArch) *powerStatic {
	return v.Memo(powerMemoKeys[arch][1], func() any {
		s := powerStaticOf(v, arch)

		// ii0 = dp ∪ rdw ∪ rfi, with rdw = po_loc ∩ (fre;rfe).
		s.ii0.CopyFrom(s.ii0s)
		v.FRE().JoinInto(v.RFE(), s.tmp)
		s.tmp.IntersectWith(v.POLoc())
		s.ii0.UnionWith(s.tmp)
		s.ii0.UnionWith(v.RFI())

		// ci0 = ctrl+isync ∪ detour, with detour = po_loc ∩ (coe;rfe).
		s.ci0.CopyFrom(s.ci0s)
		v.COE().JoinInto(v.RFE(), s.tmp)
		s.tmp.IntersectWith(v.POLoc())
		s.ci0.UnionWith(s.tmp)

		s.ii.CopyFrom(s.ii0)
		s.ic.Clear() // ic0 = ∅
		s.ci.CopyFrom(s.ci0)
		s.cc.CopyFrom(s.cc0)
		for {
			// nii = ii0 ∪ ci ∪ ic;ci ∪ ii;ii
			s.nii.CopyFrom(s.ii0)
			s.nii.UnionWith(s.ci)
			s.ic.JoinInto(s.ci, s.tmp)
			s.nii.UnionWith(s.tmp)
			s.ii.JoinInto(s.ii, s.tmp)
			s.nii.UnionWith(s.tmp)
			// nic = ic0 ∪ ii ∪ cc ∪ ic;cc ∪ ii;ic
			s.nic.CopyFrom(s.ii)
			s.nic.UnionWith(s.cc)
			s.ic.JoinInto(s.cc, s.tmp)
			s.nic.UnionWith(s.tmp)
			s.ii.JoinInto(s.ic, s.tmp)
			s.nic.UnionWith(s.tmp)
			// nci = ci0 ∪ ci;ii ∪ cc;ci
			s.nci.CopyFrom(s.ci0)
			s.ci.JoinInto(s.ii, s.tmp)
			s.nci.UnionWith(s.tmp)
			s.cc.JoinInto(s.ci, s.tmp)
			s.nci.UnionWith(s.tmp)
			// ncc = cc0 ∪ ci ∪ ci;ic ∪ cc;cc
			s.ncc.CopyFrom(s.cc0)
			s.ncc.UnionWith(s.ci)
			s.ci.JoinInto(s.ic, s.tmp)
			s.ncc.UnionWith(s.tmp)
			s.cc.JoinInto(s.cc, s.tmp)
			s.ncc.UnionWith(s.tmp)
			if s.nii.Equal(s.ii) && s.nic.Equal(s.ic) && s.nci.Equal(s.ci) && s.ncc.Equal(s.cc) {
				break
			}
			s.ii, s.nii = s.nii, s.ii
			s.ic, s.nic = s.nic, s.ic
			s.ci, s.nci = s.nci, s.ci
			s.cc, s.ncc = s.ncc, s.cc
		}

		// ppo = (rr ∩ ii) ∪ (rw ∩ ic)
		s.ppo.CopyFrom(s.ii)
		s.ppo.IntersectWith(s.rr)
		s.tmp.CopyFrom(s.ic)
		s.tmp.IntersectWith(s.rw)
		s.ppo.UnionWith(s.tmp)

		// hb = ppo ∪ fences ∪ rfe; hbRT = *hb.
		s.hb.CopyFrom(s.ppo)
		s.hb.UnionWith(s.fences)
		s.hb.UnionWith(v.RFE())
		s.hbRT.CopyFrom(s.hb)
		s.hbRT.ReflexiveCloseIn()

		// propBase = (fences ∪ rfe;fences) ; hbRT
		v.RFE().JoinInto(s.fences, s.tmp)
		s.tmp.UnionWith(s.fences)
		s.tmp.JoinInto(s.hbRT, s.propBase)

		// prop = (ww ∩ propBase) ∪ comRT ; *propBase ; ffence ; hbRT
		s.comRT.CopyFrom(v.Com())
		s.comRT.ReflexiveCloseIn()
		s.chain.CopyFrom(s.propBase)
		s.chain.ReflexiveCloseIn()
		s.comRT.JoinInto(s.chain, s.tmp)
		s.tmp.JoinInto(s.ffence, s.chain)
		s.chain.JoinInto(s.hbRT, s.tmp)
		s.prop.CopyFrom(s.ww)
		s.prop.IntersectWith(s.propBase)
		s.prop.UnionWith(s.tmp)

		return s
	}).(*powerStatic)
}

func powerAxioms(arch powerArch) []Axiom {
	return []Axiom{
		scPerLoc,
		// herding-cats "atomic": a larx/stcx pair succeeds only if no
		// external write intervenes. Charted separately from the four
		// axioms of paper Fig. 16, which saturates like TSO's.
		rmwAtomicityExt,
		{
			Name: "no_thin_air",
			Holds: func(v *exec.View) bool {
				return derivePower(v, arch).hb.Acyclic()
			},
		},
		{
			// irreflexive(fre;prop;hb*)
			Name: "observation",
			Holds: func(v *exec.View) bool {
				d := derivePower(v, arch)
				d.prop.JoinInto(d.hbRT, d.tmp)
				return v.FRE().JoinIrreflexive(d.tmp)
			},
		},
		{
			Name: "propagation",
			Holds: func(v *exec.View) bool {
				return relation.AcyclicUnion(v.CO(), derivePower(v, arch).prop)
			},
		},
	}
}

// Power returns the Power memory model in the herding-cats formulation the
// paper uses (Fig. 15): sc_per_loc, no_thin_air, observation, propagation,
// with ppo computed as the fixed point of four mutually recursive relations
// and fences split into lightweight (lwsync) and full (sync).
func Power() Model {
	return &model{
		name:   "power",
		axioms: powerAxioms(archPower),
		vocab: Vocab{
			Ops: []litmus.Op{
				litmus.R(0), litmus.W(0),
				litmus.F(litmus.FLwSync), litmus.F(litmus.FSync),
				litmus.F(litmus.FISync),
			},
			RMWOps: [][2]litmus.Op{
				{litmus.R(0), litmus.W(0)}, // larx/stcx pair
			},
			DepTypes: []litmus.DepType{litmus.DepAddr, litmus.DepData, litmus.DepCtrl},
		},
		relax: RelaxSpec{
			DemoteFence: func(e litmus.Event) []litmus.FenceKind {
				if e.Fence == litmus.FSync {
					return []litmus.FenceKind{litmus.FLwSync}
				}
				// lwsync's weaker sibling (eieio) is not axiomatically
				// formalized (paper §3.3); removal is covered by RI.
				return nil
			},
			RD:   true,
			DRMW: true,
		},
	}
}

// ARMv7 returns the ARMv7 memory model: the Power skeleton with dmb as the
// only fence (mapped onto FSync), isb for control dependencies (FISync),
// and the ARM cc0 variant. dmb.st is not axiomatically formalized (paper
// Table 2 footnote), so DF does not apply.
func ARMv7() Model {
	return &model{
		name:   "armv7",
		axioms: powerAxioms(archARMv7),
		vocab: Vocab{
			Ops: []litmus.Op{
				litmus.R(0), litmus.W(0),
				litmus.F(litmus.FSync), litmus.F(litmus.FISync),
			},
			RMWOps: [][2]litmus.Op{
				{litmus.R(0), litmus.W(0)}, // ldrex/strex pair
			},
			DepTypes: []litmus.DepType{litmus.DepAddr, litmus.DepData, litmus.DepCtrl},
		},
		relax: RelaxSpec{
			RD:   true,
			DRMW: true,
		},
	}
}
