package canon

import (
	"math/rand"
	"testing"
	"testing/quick"

	"memsynth/internal/exec"
	"memsynth/internal/litmus"
)

// permuteTest returns t with threads reordered by perm (perm[new] = old) and
// addresses renamed by addrPerm, along with the same renaming applied to an
// execution.
func permuteTest(t *litmus.Test, x *exec.Execution, perm []int, addrPerm []int) (*litmus.Test, *exec.Execution) {
	oldToNewID := make([]int, len(t.Events))
	var threads [][]litmus.Op
	var next int
	for _, oldTh := range perm {
		var ops []litmus.Op
		for _, id := range t.Thread(oldTh) {
			e := t.Events[id]
			var op litmus.Op
			switch e.Kind {
			case litmus.KRead:
				op = litmus.R(addrPerm[e.Addr]).WithOrder(e.Order).WithScope(e.Scope)
			case litmus.KWrite:
				op = litmus.W(addrPerm[e.Addr]).WithOrder(e.Order).WithScope(e.Scope)
			case litmus.KFence:
				op = litmus.F(e.Fence).WithScope(e.Scope)
			}
			ops = append(ops, op)
			oldToNewID[id] = next
			next++
		}
		threads = append(threads, ops)
	}
	var opts []litmus.Option
	for _, d := range t.Deps {
		from, to := t.Events[d.From], t.Events[d.To]
		newTh := indexOf(perm, from.Thread)
		opts = append(opts, litmus.WithDep(newTh, from.Index, to.Index, d.Type))
	}
	for _, p := range t.RMW {
		r := t.Events[p[0]]
		opts = append(opts, litmus.WithRMW(indexOf(perm, r.Thread), r.Index))
	}
	if t.Groups != nil {
		groups := make([]int, len(perm))
		for newTh, oldTh := range perm {
			groups[newTh] = t.GroupOf(oldTh)
		}
		opts = append(opts, litmus.WithGroups(groups...))
	}
	nt := litmus.New(t.Name, threads, opts...)

	if x == nil {
		return nt, nil
	}
	nx := &exec.Execution{Test: nt, RF: make([]int, len(nt.Events)), CO: make([][]int, nt.NumAddrs())}
	for i := range nx.RF {
		nx.RF[i] = -1
	}
	for old, e := range t.Events {
		if e.Kind == litmus.KRead && x.RF[old] >= 0 {
			nx.RF[oldToNewID[old]] = oldToNewID[x.RF[old]]
		}
	}
	for a, ws := range x.CO {
		na := addrPerm[a]
		for _, w := range ws {
			nx.CO[na] = append(nx.CO[na], oldToNewID[w])
		}
	}
	for _, f := range x.SC {
		nx.SC = append(nx.SC, oldToNewID[f])
	}
	return nt, nx
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

// wwc builds the WWC test of paper Fig. 14, whose two symmetric variants
// the paper's hash-based canonicalizer failed to merge.
func wwc(swap bool) *litmus.Test {
	// T0: Wx=2 || T1: Rx; Wy || T2: Ry; Wx=1 (threads 1 and 2 have the
	// same load-store shape; swapping them plus renaming addresses gives
	// the symmetric variant).
	a, b := 0, 1
	if swap {
		a, b = 1, 0
	}
	return litmus.New("WWC", [][]litmus.Op{
		{litmus.W(a)},
		{litmus.R(a), litmus.W(b)},
		{litmus.R(b), litmus.W(a)},
	})
}

func TestProgramKeyThreadPermutation(t *testing.T) {
	mp := litmus.New("MP", [][]litmus.Op{
		{litmus.W(0), litmus.Wrel(1)},
		{litmus.Racq(1), litmus.R(0)},
	})
	// Swap threads and addresses (paper Fig. 9).
	swapped, _ := permuteTest(mp, nil, []int{1, 0}, []int{1, 0})
	if ProgramKey(mp) != ProgramKey(swapped) {
		t.Errorf("thread/address-swapped MP has different key:\n%x\n%x",
			ProgramKey(mp), ProgramKey(swapped))
	}
}

func TestProgramKeyDistinguishes(t *testing.T) {
	mp := litmus.New("MP", [][]litmus.Op{
		{litmus.W(0), litmus.Wrel(1)},
		{litmus.Racq(1), litmus.R(0)},
	})
	mpPlain := litmus.New("MPp", [][]litmus.Op{
		{litmus.W(0), litmus.W(1)},
		{litmus.R(1), litmus.R(0)},
	})
	if ProgramKey(mp) == ProgramKey(mpPlain) {
		t.Error("annotated and plain MP share a key")
	}
	sb := litmus.New("SB", [][]litmus.Op{
		{litmus.W(0), litmus.R(1)},
		{litmus.W(1), litmus.R(0)},
	})
	if ProgramKey(mpPlain) == ProgramKey(sb) {
		t.Error("MP and SB share a key")
	}
}

func TestProgramKeyDeps(t *testing.T) {
	base := litmus.New("LB", [][]litmus.Op{
		{litmus.R(0), litmus.W(1)},
		{litmus.R(1), litmus.W(0)},
	})
	withDep := litmus.New("LB+data", [][]litmus.Op{
		{litmus.R(0), litmus.W(1)},
		{litmus.R(1), litmus.W(0)},
	}, litmus.WithDep(0, 0, 1, litmus.DepData))
	withAddr := litmus.New("LB+addr", [][]litmus.Op{
		{litmus.R(0), litmus.W(1)},
		{litmus.R(1), litmus.W(0)},
	}, litmus.WithDep(0, 0, 1, litmus.DepAddr))
	if ProgramKey(base) == ProgramKey(withDep) {
		t.Error("dep ignored by key")
	}
	if ProgramKey(withDep) == ProgramKey(withAddr) {
		t.Error("dep type ignored by key")
	}
	// The dependency on thread 0 vs the symmetric dependency on thread 1
	// are the same test.
	otherThread := litmus.New("LB+data2", [][]litmus.Op{
		{litmus.R(0), litmus.W(1)},
		{litmus.R(1), litmus.W(0)},
	}, litmus.WithDep(1, 0, 1, litmus.DepData))
	if ProgramKey(withDep) != ProgramKey(otherThread) {
		t.Error("symmetric dep placement not canonicalized")
	}
}

func TestWWCSymmetry(t *testing.T) {
	// Paper Fig. 14: the two WWC variants are symmetric; our full
	// permutation search must merge them (the paper's canonicalizer did
	// not).
	if ProgramKey(wwc(false)) != ProgramKey(wwc(true)) {
		t.Errorf("WWC variants not merged:\n%x\n%x",
			ProgramKey(wwc(false)), ProgramKey(wwc(true)))
	}
}

func TestKeyCoversExecution(t *testing.T) {
	mp := litmus.New("MP", [][]litmus.Op{
		{litmus.W(0), litmus.W(1)},
		{litmus.R(1), litmus.R(0)},
	})
	x1 := &exec.Execution{Test: mp, RF: []int{-1, -1, 1, -1}, CO: [][]int{{0}, {1}}}
	x2 := &exec.Execution{Test: mp, RF: []int{-1, -1, 1, 0}, CO: [][]int{{0}, {1}}}
	if Key(x1) == Key(x2) {
		t.Error("different rf, same key")
	}
	if ProgramKey(mp) == Key(x1) {
		t.Error("execution key equals program key")
	}
}

func TestKeyGroupRenaming(t *testing.T) {
	mk := func(groups ...int) *litmus.Test {
		return litmus.New("scoped", [][]litmus.Op{
			{litmus.Wrel(0).WithScope(litmus.ScopeWG)},
			{litmus.Racq(0).WithScope(litmus.ScopeWG)},
		}, litmus.WithGroups(groups...))
	}
	if ProgramKey(mk(0, 1)) != ProgramKey(mk(1, 0)) {
		t.Error("group renaming not canonical")
	}
	if ProgramKey(mk(0, 0)) == ProgramKey(mk(0, 1)) {
		t.Error("same-group vs cross-group collapsed")
	}
}

// randomTest draws a random small test plus one of its executions.
func randomTest(rng *rand.Rand) (*litmus.Test, *exec.Execution) {
	numThreads := 1 + rng.Intn(3)
	var threads [][]litmus.Op
	for th := 0; th < numThreads; th++ {
		size := 1 + rng.Intn(3)
		var ops []litmus.Op
		for i := 0; i < size; i++ {
			addr := rng.Intn(2)
			switch rng.Intn(5) {
			case 0:
				ops = append(ops, litmus.R(addr))
			case 1:
				ops = append(ops, litmus.W(addr))
			case 2:
				ops = append(ops, litmus.Racq(addr))
			case 3:
				ops = append(ops, litmus.Wrel(addr))
			case 4:
				ops = append(ops, litmus.F(litmus.FSync))
			}
		}
		threads = append(threads, ops)
	}
	t := buildContiguous(threads)
	var chosen *exec.Execution
	n := rng.Intn(8)
	i := 0
	exec.Enumerate(t, exec.EnumerateOptions{}, func(x *exec.Execution) bool {
		chosen = x.Clone()
		i++
		return i <= n
	})
	return t, chosen
}

// buildContiguous renames addresses to be contiguous and builds the test.
func buildContiguous(threads [][]litmus.Op) *litmus.Test {
	remap := map[int]int{}
	var out [][]litmus.Op
	for _, ops := range threads {
		var row []litmus.Op
		for _, op := range ops {
			if op.IsFence() {
				row = append(row, op)
				continue
			}
			na, ok := remap[op.Addr()]
			if !ok {
				na = len(remap)
				remap[op.Addr()] = na
			}
			row = append(row, op.WithAddr(na))
		}
		out = append(out, row)
	}
	return litmus.New("rnd", out)
}

func TestQuickKeyInvariantUnderPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lt, x := randomTest(rng)
		if x == nil {
			return true
		}
		perm := rng.Perm(lt.NumThreads())
		numAddrs := lt.NumAddrs()
		addrPerm := rng.Perm(numAddrs)
		pt, px := permuteTest(lt, x, perm, addrPerm)
		return Key(x) == Key(px) && ProgramKey(lt) == ProgramKey(pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
