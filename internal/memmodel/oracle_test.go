package memmodel_test

import (
	"testing"

	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/relation"
	"memsynth/internal/synth"
)

// The axiom oracle: the allocating Holds formulas of every builtin model,
// frozen as they stood before the models moved to pooled derivations and
// fused relation kernels. Each formula builds its relations afresh per
// call with the allocating operators, so it shares no scratch, memo, or
// kernel with the code under test. TestAxiomOracle holds every builtin's
// axioms to these, axiom by axiom, over the engine's whole program space
// at small bounds. Do not "optimize" this file: its value is that it does
// not change.

type oracleAxiom struct {
	name  string
	holds func(v *exec.View) bool
}

func oracleRMWExt(v *exec.View) bool {
	return v.FRE().Join(v.COE()).Intersect(v.RMW()).IsEmpty()
}

func oracleRMW(v *exec.View) bool {
	return v.FR().Join(v.CO()).Intersect(v.RMW()).IsEmpty()
}

func oracleSCPerLoc(v *exec.View) bool {
	return v.Com().Union(v.POLoc()).Acyclic()
}

var oracleAxioms = map[string][]oracleAxiom{
	"sc": {
		{"rmw_atomicity", oracleRMWExt},
		{"sc_order", func(v *exec.View) bool {
			return v.Com().Union(v.PO()).Acyclic()
		}},
	},
	"tso": {
		{"sc_per_loc", oracleSCPerLoc},
		{"rmw_atomicity", oracleRMWExt},
		{"causality", func(v *exec.View) bool {
			n := v.N()
			wr := relation.Cross(n, v.Writes(), v.Reads())
			ppo := v.PO().Minus(wr)
			fence := oracleFenceRel(v, litmus.FMFence)
			g := v.RFE().Union(v.CO()).Union(v.FR()).Union(ppo).Union(fence)
			return g.Acyclic()
		}},
	},
	"power": oraclePowerAxioms(oraclePower),
	"armv7": oraclePowerAxioms(oracleARMv7),
	"armv8": oraclePowerAxioms(oracleARMv8),
	"scc":   oracleSCCAxioms(false),
	"hsa":   oracleSCCAxioms(true),
	"c11":   oracleC11Axioms(),
}

// oracleFenceRel is (po :> F) ; po for the live fences of the given kind.
func oracleFenceRel(v *exec.View, k litmus.FenceKind) relation.Rel {
	return v.PO().RestrictRange(v.FencesOfKind(k)).Join(v.PO())
}

type oracleArch int

const (
	oraclePower oracleArch = iota
	oracleARMv7
	oracleARMv8
)

type oraclePowerDerived struct {
	ppo, fences, ffence, hb, hbRT, prop relation.Rel
}

// oracleDerivePower is the herding-cats Power/ARMv7 derivation (ppo as the
// ii/ic/ci/cc fixed point, then hb and prop); ARMv8 adds acquire/release
// edges to the ARMv7 fences.
func oracleDerivePower(v *exec.View, arch oracleArch) oraclePowerDerived {
	n := v.N()
	arm := arch != oraclePower
	rr := relation.Cross(n, v.Reads(), v.Reads())
	rw := relation.Cross(n, v.Reads(), v.Writes())
	ww := relation.Cross(n, v.Writes(), v.Writes())
	wr := relation.Cross(n, v.Writes(), v.Reads())

	dp := v.Dep(litmus.DepAddr).Union(v.Dep(litmus.DepData))
	ctrl := v.Dep(litmus.DepCtrl)
	addrPo := v.Dep(litmus.DepAddr).Join(v.PO())
	isync := v.FencesOfKind(litmus.FISync)
	ctrlIsync := ctrl.RestrictRange(isync).Join(v.PO())

	rdw := v.POLoc().Intersect(v.FRE().Join(v.RFE()))
	detour := v.POLoc().Intersect(v.COE().Join(v.RFE()))
	ii0 := dp.Union(rdw).Union(v.RFI())
	ci0 := ctrlIsync.Union(detour)
	cc0 := dp.Union(ctrl).Union(addrPo)
	if !arm {
		cc0 = cc0.Union(v.POLoc())
	}

	ii, ic, ci, cc := ii0, relation.New(n), ci0, cc0
	for {
		nii := ii0.Union(ci).Union(ic.Join(ci)).Union(ii.Join(ii))
		nic := ii.Union(cc).Union(ic.Join(cc)).Union(ii.Join(ic))
		nci := ci0.Union(ci.Join(ii)).Union(cc.Join(ci))
		ncc := cc0.Union(ci).Union(ci.Join(ic)).Union(cc.Join(cc))
		if nii.Equal(ii) && nic.Equal(ic) && nci.Equal(ci) && ncc.Equal(cc) {
			break
		}
		ii, ic, ci, cc = nii, nic, nci, ncc
	}
	ppo := rr.Intersect(ii).Union(rw.Intersect(ic))

	ffence := oracleFenceRel(v, litmus.FSync)
	fences := ffence
	switch arch {
	case oraclePower:
		fences = oracleFenceRel(v, litmus.FLwSync).Minus(wr).Union(ffence)
	case oracleARMv8:
		acq := v.Where(func(id int) bool {
			return v.Reads().Has(id) && v.OrderOf(id) == litmus.OAcquire
		})
		rel := v.Where(func(id int) bool {
			return v.Writes().Has(id) && v.OrderOf(id) == litmus.ORelease
		})
		fences = fences.Union(v.PO().RestrictDomain(acq).Union(v.PO().RestrictRange(rel)))
	}

	hb := ppo.Union(fences).Union(v.RFE())
	hbRT := hb.ReflexiveClosure()
	propBase := fences.Union(v.RFE().Join(fences)).Join(hbRT)
	comRT := v.Com().ReflexiveClosure()
	prop := ww.Intersect(propBase).
		Union(comRT.Join(propBase.ReflexiveClosure()).Join(ffence).Join(hbRT))
	return oraclePowerDerived{ppo: ppo, fences: fences, ffence: ffence, hb: hb, hbRT: hbRT, prop: prop}
}

func oraclePowerAxioms(arch oracleArch) []oracleAxiom {
	return []oracleAxiom{
		{"sc_per_loc", oracleSCPerLoc},
		{"rmw_atomicity", oracleRMWExt},
		{"no_thin_air", func(v *exec.View) bool {
			return oracleDerivePower(v, arch).hb.Acyclic()
		}},
		{"observation", func(v *exec.View) bool {
			d := oracleDerivePower(v, arch)
			return v.FRE().Join(d.prop).Join(d.hbRT).Irreflexive()
		}},
		{"propagation", func(v *exec.View) bool {
			d := oracleDerivePower(v, arch)
			return v.CO().Union(d.prop).Acyclic()
		}},
	}
}

// oracleSCRel is the strict total order over live FSC fences (after DF
// demotions) that the execution's sc permutation induces.
func oracleSCRel(v *exec.View) relation.Rel {
	r := relation.New(v.N())
	sc := v.Execution().SC
	in := func(id int) bool { return v.Live().Has(id) && v.FenceOf(id) == litmus.FSC }
	for i := range sc {
		for j := i + 1; j < len(sc); j++ {
			if in(sc[i]) && in(sc[j]) {
				r.Add(sc[i], sc[j])
			}
		}
	}
	return r
}

func oracleSCCAxioms(scoped bool) []oracleAxiom {
	causality := func(v *exec.View) bool {
		n := v.N()
		fences := v.Fences()
		releases := v.Where(func(id int) bool {
			return v.Writes().Has(id) && v.OrderOf(id) == litmus.ORelease
		})
		acquires := v.Where(func(id int) bool {
			return v.Reads().Has(id) && v.OrderOf(id) == litmus.OAcquire
		})
		iden := relation.IdentityOn(n, v.Live())
		prefix := iden.Union(v.PO().RestrictDomain(fences)).Union(v.POLoc().RestrictDomain(releases))
		suffix := iden.Union(v.PO().RestrictRange(fences)).Union(v.POLoc().RestrictRange(acquires))
		sync := prefix.Join(v.RF().Union(v.RMW()).Closure()).Join(suffix).
			Restrict(releases.Union(fences), acquires.Union(fences))
		sc := oracleSCRel(v)
		if scoped {
			sync = sync.Intersect(v.ScopeCompatible())
			sc = sc.Intersect(v.ScopeCompatible())
		}
		poRT := v.PO().ReflexiveClosure()
		cause := poRT.Join(sc.Union(sync)).Join(poRT)
		return v.Com().ReflexiveClosure().Join(cause.Closure()).Irreflexive()
	}
	return []oracleAxiom{
		{"sc_per_loc", oracleSCPerLoc},
		{"no_thin_air", func(v *exec.View) bool {
			return v.RF().Union(v.DepAll()).Acyclic()
		}},
		{"rmw_atomicity", oracleRMW},
		{"causality", causality},
	}
}

func oracleAtLeastRelease(o litmus.Order) bool {
	return o == litmus.ORelease || o == litmus.OAcqRel || o == litmus.OSC
}

func oracleAtLeastAcquire(o litmus.Order) bool {
	return o == litmus.OAcquire || o == litmus.OAcqRel || o == litmus.OSC
}

// oracleC11 computes RC11's happens-before and extended coherence order.
func oracleC11(v *exec.View) (hb, eco relation.Rel) {
	n := v.N()
	relW := v.Where(func(id int) bool {
		return v.Writes().Has(id) && oracleAtLeastRelease(v.OrderOf(id))
	})
	acqR := v.Where(func(id int) bool {
		return v.Reads().Has(id) && oracleAtLeastAcquire(v.OrderOf(id))
	})
	relF := v.FencesOfKind(litmus.FRel, litmus.FAcqRel, litmus.FSC)
	acqF := v.FencesOfKind(litmus.FAcq, litmus.FAcqRel, litmus.FSC)

	wsIden := relation.IdentityOn(n, v.Writes())
	poLocWW := v.POLoc().Restrict(v.Writes(), v.Writes())
	rs := wsIden.Union(poLocWW).Join(v.RF().Join(v.RMW()).ReflexiveClosure())
	pre := relation.IdentityOn(n, relW).
		Union(v.PO().RestrictDomain(relF).RestrictRange(v.Writes()))
	post := relation.IdentityOn(n, acqR).
		Union(v.PO().RestrictDomain(v.Reads()).RestrictRange(acqF))
	sw := pre.Join(rs).Join(v.RF()).Join(post)
	return v.PO().Union(sw).Closure(), v.Com().Closure()
}

func oracleC11Axioms() []oracleAxiom {
	return []oracleAxiom{
		{"coherence", func(v *exec.View) bool {
			hb, eco := oracleC11(v)
			return hb.Join(eco.OptStep()).Irreflexive()
		}},
		{"rmw_atomicity", oracleRMW},
		{"sc", func(v *exec.View) bool {
			hb, eco := oracleC11(v)
			n := v.N()
			esc := v.Where(func(id int) bool {
				return (v.Reads().Has(id) || v.Writes().Has(id)) && v.OrderOf(id) == litmus.OSC
			})
			fsc := v.FencesOfKind(litmus.FSC)
			hbOpt := hb.OptStep()
			scb := v.PO().
				Union(v.PO().Join(hb).Join(v.PO())).
				Union(hb.Intersect(v.SameAddr())).
				Union(v.CO()).
				Union(v.FR())
			pre := relation.IdentityOn(n, esc).Union(hbOpt.RestrictDomain(fsc))
			post := relation.IdentityOn(n, esc).Union(hbOpt.RestrictRange(fsc))
			pscBase := pre.Join(scb).Join(post)
			pscF := hb.Union(hb.Join(eco).Join(hb)).Restrict(fsc, fsc)
			return pscBase.Union(pscF).Acyclic()
		}},
		{"no_thin_air", func(v *exec.View) bool {
			return v.PO().Union(v.RF()).Acyclic()
		}},
	}
}

// oracleCorpus holds programs beyond the enumerated bounds, each
// reaching a part of some model the bounded sweep cannot: fences between
// two accesses per thread (mfence, sync, lwsync, dmb, isync, seq_cst and
// scoped fences), the ppo fixpoint's dependency and rfi classes, and a
// cycle through com;com (co;rf) closed by a two-step cause, which tells
// com* from iden ∪ com in SCC's causality.
var oracleCorpus = []*litmus.Test{
	litmus.New("co-rf-cause", [][]litmus.Op{
		{litmus.Racq(1), litmus.W(0)},
		{litmus.W(0)},
		{litmus.R(0), litmus.Wrel(1)},
	}),
	litmus.New("SB+mfences", [][]litmus.Op{
		{litmus.W(0), litmus.F(litmus.FMFence), litmus.R(1)},
		{litmus.W(1), litmus.F(litmus.FMFence), litmus.R(0)},
	}),
	litmus.New("SB+scfences", [][]litmus.Op{
		{litmus.W(0), litmus.F(litmus.FSC), litmus.R(1)},
		{litmus.W(1), litmus.F(litmus.FSC), litmus.R(0)},
	}),
	litmus.New("SB+wg-scfences", [][]litmus.Op{
		{litmus.W(0), litmus.F(litmus.FSC).WithScope(litmus.ScopeWG), litmus.R(1)},
		{litmus.W(1), litmus.F(litmus.FSC).WithScope(litmus.ScopeWG), litmus.R(0)},
	}, litmus.WithGroups(0, 1)),
	litmus.New("MP+lwsync+addr", [][]litmus.Op{
		{litmus.W(0), litmus.F(litmus.FLwSync), litmus.W(1)},
		{litmus.R(1), litmus.R(0)},
	}, litmus.WithDep(1, 0, 1, litmus.DepAddr)),
	litmus.New("MP+sync+ctrlisync", [][]litmus.Op{
		{litmus.W(0), litmus.F(litmus.FSync), litmus.W(1)},
		{litmus.R(1), litmus.F(litmus.FISync), litmus.R(0)},
	}, litmus.WithDep(1, 0, 1, litmus.DepCtrl)),
	litmus.New("MP+rel+acq", [][]litmus.Op{
		{litmus.W(0), litmus.Wrel(1)},
		{litmus.Racq(1), litmus.R(0)},
	}),
	litmus.New("SB+lwsyncs", [][]litmus.Op{
		{litmus.W(0), litmus.F(litmus.FLwSync), litmus.R(1)},
		{litmus.W(1), litmus.F(litmus.FLwSync), litmus.R(0)},
	}),
	// ppo(Ry, Rz) holds when Rx reads the thread's own Wx (rfi), not when
	// it reads the other thread's co-earlier Wx: executions of one view
	// differ in their ppo fixpoint, rfi ones enumerated first.
	litmus.New("MP+sync+data-rfi-ctrlisync", [][]litmus.Op{
		{litmus.R(1), litmus.W(0), litmus.R(0), litmus.F(litmus.FISync), litmus.R(2)},
		{litmus.W(2), litmus.F(litmus.FSync), litmus.W(1), litmus.W(0)},
	}, litmus.WithDep(0, 0, 1, litmus.DepData), litmus.WithDep(0, 2, 3, litmus.DepCtrl)),
	litmus.New("PPOCA", [][]litmus.Op{
		{litmus.W(0), litmus.F(litmus.FSync), litmus.W(1)},
		{litmus.R(1), litmus.W(2), litmus.R(2), litmus.R(0)},
	}, litmus.WithDep(1, 0, 1, litmus.DepCtrl), litmus.WithDep(1, 2, 3, litmus.DepAddr)),
	litmus.New("PPOAA", [][]litmus.Op{
		{litmus.W(0), litmus.F(litmus.FSync), litmus.W(1)},
		{litmus.R(1), litmus.W(2), litmus.R(2), litmus.R(0)},
	}, litmus.WithDep(1, 0, 1, litmus.DepAddr), litmus.WithDep(1, 2, 3, litmus.DepAddr)),
}

// perturbedViews returns a fresh view of p unperturbed and one under each
// relaxation application m admits.
func perturbedViews(m memmodel.Model, p *litmus.Test) []*exec.View {
	perturbs := append([]exec.Perturb{exec.NoPerturb}, memmodel.Applications(m, p)...)
	views := make([]*exec.View, len(perturbs))
	for i, pt := range perturbs {
		views[i] = exec.NewStaticCtx(p, pt).NewView()
	}
	return views
}

// oracleViews calls visit with a view of every execution of p (sc orders
// enumerated when the vocabulary uses them), unperturbed and under every
// relaxation application m admits. visit returns false to stop.
func oracleViews(m memmodel.Model, p *litmus.Test, visit func(v *exec.View) bool) bool {
	views := perturbedViews(m, p)
	ok := true
	exec.Enumerate(p, exec.EnumerateOptions{UseSC: m.Vocab().UsesSC}, func(x *exec.Execution) bool {
		for _, v := range views {
			v.Reset(x)
			if ok = visit(v); !ok {
				return false
			}
		}
		return true
	})
	return ok
}

// TestAxiomOracle holds every builtin model's axioms — names, order, and
// each Holds verdict — to the frozen allocating formulas above, on every
// execution of every generated program at bound 3 (bound 4 for sc, tso,
// c11 and scc, the last so that sc orders over two fences are covered) and
// of oracleCorpus, unperturbed and under every relaxation application.
func TestAxiomOracle(t *testing.T) {
	bounds := map[string]int{"sc": 4, "tso": 4, "c11": 4, "scc": 4}
	for _, m := range memmodel.All() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			oracle := oracleAxioms[m.Name()]
			axioms := m.Axioms()
			if len(axioms) != len(oracle) {
				t.Fatalf("%d axioms, oracle has %d", len(axioms), len(oracle))
			}
			for i, a := range axioms {
				if a.Name != oracle[i].name {
					t.Fatalf("axiom %d is %q, oracle has %q", i, a.Name, oracle[i].name)
				}
			}
			cases, fails := 0, 0
			check := func(p *litmus.Test) bool {
				return oracleViews(m, p, func(v *exec.View) bool {
					cases++
					for i, a := range axioms {
						// Evaluate the model's axioms in order on the
						// shared view, as the minimality checker does, so
						// memoized derivations are exercised; the oracle
						// is stateless.
						if got, want := a.Holds(v), oracle[i].holds(v); got != want {
							fails++
							t.Errorf("%s under %v, execution %v: %s = %v, oracle %v",
								p, v.Perturbation(), v.Execution(), a.Name, got, want)
						}
					}
					return fails < 10
				})
			}
			bound := bounds[m.Name()]
			if bound == 0 {
				bound = 3
			}
			if err := synth.EnumeratePrograms(m.Vocab(), synth.Options{MaxEvents: bound}, check); err != nil {
				t.Fatal(err)
			}
			for _, p := range oracleCorpus {
				check(p)
			}
			t.Logf("%s@%d: %d (execution, perturbation) views agree", m.Name(), bound, cases)
		})
	}
}
