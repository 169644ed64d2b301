package canon_test

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"memsynth/internal/canon"
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/synth"
)

// partition checks that key equality partitions programs exactly as the
// oracle's program-key equality does, in both directions. Keys are held as
// SHA-256 digests: pointer-free maps keep the garbage collector off the
// hundreds of thousands of classes at hsa@4.
type partition struct {
	oldToNew, newToOld map[digest]digest
}

type digest [sha256.Size]byte

func newPartition() *partition {
	return &partition{oldToNew: map[digest]digest{}, newToOld: map[digest]digest{}}
}

func (p *partition) add(t *testing.T, k keyed) bool {
	t.Helper()
	if n, ok := p.oldToNew[k.oldKey]; ok && n != k.newKey {
		t.Errorf("program %s: oracle-equal programs get different keys", k.prog)
		return false
	}
	if o, ok := p.newToOld[k.newKey]; ok && o != k.oldKey {
		t.Errorf("program %s: its key is shared by two oracle classes", k.prog)
		return false
	}
	p.oldToNew[k.oldKey], p.newToOld[k.newKey] = k.newKey, k.oldKey
	return true
}

// keyed is a generated program with the digests of its oracle and binary
// keys.
type keyed struct {
	prog           *litmus.Test
	oldKey, newKey digest
}

// keyPrograms streams every program of m up to bound, keyed by both
// encoders on GOMAXPROCS goroutines in batches, to visit in arbitrary
// order.
func keyPrograms(t *testing.T, m memmodel.Model, bound int, visit func(keyed) bool) int {
	// Batches amortize the channel hand-offs over the per-program work;
	// a few in flight let the generator run ahead of the key workers.
	const batch, inFlight = 512, 4
	progs, out := make(chan []*litmus.Test, inFlight), make(chan []keyed, inFlight)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ps := range progs {
				ks := make([]keyed, len(ps))
				for i, p := range ps {
					ks[i] = keyed{p, sha256.Sum256([]byte(oracleKey(p, nil))), sha256.Sum256([]byte(canon.ProgramKey(p)))}
				}
				out <- ks
			}
		}()
	}
	errc := make(chan error, 1)
	go func() {
		var ps []*litmus.Test
		err := synth.EnumeratePrograms(m.Vocab(), synth.Options{MaxEvents: bound}, func(p *litmus.Test) bool {
			if ps = append(ps, p); len(ps) == batch {
				progs <- ps
				ps = nil
			}
			return true
		})
		progs <- ps
		close(progs)
		wg.Wait()
		close(out)
		errc <- err
	}()
	raw, ok := 0, true
	for ks := range out {
		for _, k := range ks {
			raw++
			ok = ok && visit(k)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	return raw
}

type modelBound struct {
	m     memmodel.Model
	bound int
}

// differentialCases lists every builtin at the given bound plus sc and tso
// one bound higher.
func differentialCases(t *testing.T, bound int) []modelBound {
	var cases []modelBound
	for _, m := range memmodel.All() {
		cases = append(cases, modelBound{m, bound})
	}
	for _, name := range []string{"sc", "tso"} {
		m, err := memmodel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, modelBound{m, bound + 1})
	}
	return cases
}

// TestProgramKeyPartitionMatchesOracle: over every generated program of
// every builtin at bound 4 (sc and tso at 5), the binary key and the
// original fmt key agree on which programs are symmetric.
func TestProgramKeyPartitionMatchesOracle(t *testing.T) {
	bound := 4
	if testing.Short() {
		bound = 3
	}
	for _, c := range differentialCases(t, bound) {
		t.Run(fmt.Sprintf("%s@%d", c.m.Name(), c.bound), func(t *testing.T) {
			t.Parallel()
			p := newPartition()
			raw := keyPrograms(t, c.m, c.bound, func(k keyed) bool { return p.add(t, k) })
			if len(p.oldToNew) != len(p.newToOld) {
				t.Errorf("%d oracle classes, %d key classes", len(p.oldToNew), len(p.newToOld))
			}
			t.Logf("%d programs, %d classes", raw, len(p.newToOld))
		})
	}
}

// TestKeyMatchesOracle: the execution key is byte-identical to the
// original encoder on every execution of every generated program of every
// builtin at bound 3 (sc and tso at 4).
func TestKeyMatchesOracle(t *testing.T) {
	bound := 3
	if testing.Short() {
		bound = 2
	}
	for _, c := range differentialCases(t, bound) {
		t.Run(fmt.Sprintf("%s@%d", c.m.Name(), c.bound), func(t *testing.T) {
			t.Parallel()
			execs := 0
			err := synth.EnumeratePrograms(c.m.Vocab(), synth.Options{MaxEvents: c.bound}, func(prog *litmus.Test) bool {
				ok := true
				exec.Enumerate(prog, exec.EnumerateOptions{UseSC: c.m.Vocab().UsesSC}, func(x *exec.Execution) bool {
					execs++
					if got, want := canon.Key(x), oracleKey(prog, x); got != want {
						t.Errorf("program %s: Key %q, oracle %q", prog, got, want)
						ok = false
					}
					return ok
				})
				return ok
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d executions", execs)
		})
	}
}

// longThread returns n ops cycling through reads and writes of addrs
// addresses, with an acquire read at position mark (if in range).
func longThread(n, addrs, mark int) []litmus.Op {
	ops := make([]litmus.Op, n)
	for i := range ops {
		switch {
		case i == mark:
			ops[i] = litmus.Racq(i % addrs)
		case i%3 == 0:
			ops[i] = litmus.R(i % addrs)
		default:
			ops[i] = litmus.W(i % addrs)
		}
	}
	return ops
}

// TestProgramKeyInjectivityEdgeCases: hand-made programs whose oracle
// classes are known; the key must separate and merge them the same way.
func TestProgramKeyInjectivityEdgeCases(t *testing.T) {
	big := func(mark, addrs int, swap bool, opts ...litmus.Option) *litmus.Test {
		a, b := longThread(140, addrs, mark), longThread(130, addrs, -1)
		if swap {
			a, b = b, a
		}
		return litmus.New("big", [][]litmus.Op{a, b}, opts...)
	}
	scoped := func(groups ...int) *litmus.Test {
		threads := make([][]litmus.Op, len(groups))
		for i := range threads {
			threads[i] = []litmus.Op{litmus.Wrel(i % 2).WithScope(litmus.ScopeWG)}
		}
		return litmus.New("scoped", threads, litmus.WithGroups(groups...))
	}
	// A test built without litmus.New: sparse addresses are renamed like
	// dense ones.
	sparse := &litmus.Test{Name: "sparse", Events: []litmus.Event{
		{ID: 0, Thread: 0, Index: 0, Kind: litmus.KWrite, Addr: 1000},
		{ID: 1, Thread: 0, Index: 1, Kind: litmus.KWrite, Addr: 7},
		{ID: 2, Thread: 1, Index: 0, Kind: litmus.KRead, Addr: 7},
		{ID: 3, Thread: 1, Index: 1, Kind: litmus.KRead, Addr: 1000},
	}}
	cases := []struct {
		name string
		a, b *litmus.Test
		same bool
	}{
		{"270 events, thread swap", big(200, 3, false), big(200, 3, true), true},
		{"270 events, one order deep inside", big(100, 3, false), big(101, 3, false), false},
		{"270 events, 200 addresses", big(200, 200, false), big(200, 200, true), true},
		{"270 events, 200 addresses, mark moved", big(120, 200, false), big(121, 200, false), false},
		{"270 events, dep ids past 255",
			big(-1, 3, false, litmus.WithDep(0, 129, 135, litmus.DepData)),
			big(-1, 3, false, litmus.WithDep(0, 129, 136, litmus.DepData)), false},
		{"270 events, dep on the swapped thread",
			big(-1, 3, false, litmus.WithDep(1, 3, 9, litmus.DepAddr)),
			big(-1, 3, true, litmus.WithDep(0, 3, 9, litmus.DepAddr)), true},
		{"thread lengths only",
			litmus.New("a", [][]litmus.Op{{litmus.W(0), litmus.W(1)}, {litmus.R(1), litmus.R(0)}}),
			litmus.New("b", [][]litmus.Op{{litmus.W(0)}, {litmus.W(1), litmus.R(1), litmus.R(0)}}), false},
		// Without the event counts these two encode alike: the second
		// thread's group byte lines up with a read's kind byte.
		{"thread boundary aligned with an event",
			litmus.New("a", [][]litmus.Op{
				{litmus.F(litmus.FLwSync).WithScope(litmus.ScopeSys), litmus.Wrel(0).WithScope(litmus.ScopeSys)},
				{litmus.Wrel(0).WithScope(litmus.ScopeWG)}}),
			litmus.New("b", [][]litmus.Op{
				{litmus.Wrel(1).WithScope(litmus.ScopeSys)},
				{litmus.Wrel(1).WithScope(litmus.ScopeWG), litmus.Racq(0).WithScope(litmus.ScopeSys)}}), false},
		{"thread lengths with fences",
			litmus.New("a", [][]litmus.Op{{litmus.W(0), litmus.F(litmus.FSync)}, {litmus.R(0)}}),
			litmus.New("b", [][]litmus.Op{{litmus.W(0)}, {litmus.F(litmus.FSync), litmus.R(0)}}), false},
		{"fence versus first address",
			litmus.New("a", [][]litmus.Op{{litmus.W(0), litmus.F(litmus.FMFence), litmus.R(1)}}),
			litmus.New("b", [][]litmus.Op{{litmus.W(0), litmus.F(litmus.FLwSync), litmus.R(1)}}), false},
		{"address reuse versus fresh address",
			litmus.New("a", [][]litmus.Op{{litmus.W(0), litmus.R(0)}, {litmus.W(1)}}),
			litmus.New("b", [][]litmus.Op{{litmus.W(0), litmus.R(1)}, {litmus.W(1)}}), false},
		{"address renaming",
			litmus.New("a", [][]litmus.Op{{litmus.W(0), litmus.R(1)}, {litmus.W(1), litmus.R(0)}}),
			litmus.New("b", [][]litmus.Op{{litmus.W(1), litmus.R(0)}, {litmus.W(0), litmus.R(1)}}), true},
		{"sparse addresses", sparse,
			litmus.New("dense", [][]litmus.Op{{litmus.W(0), litmus.W(1)}, {litmus.R(1), litmus.R(0)}}), true},
		{"groups renamed", scoped(0, 1, 0), scoped(1, 0, 1), true},
		{"groups with arbitrary names", scoped(-5, 1000, -5), scoped(0, 1, 0), true},
		{"groups split differently", scoped(0, 1, 0), scoped(0, 0, 1), false},
		{"one group versus two", scoped(0, 0, 0), scoped(0, 0, 1), false},
		{"nil groups versus one group", litmus.New("nil", [][]litmus.Op{{litmus.W(0)}, {litmus.R(0)}}),
			litmus.New("one", [][]litmus.Op{{litmus.W(0)}, {litmus.R(0)}}, litmus.WithGroups(3, 3)), true},
		{"rmw placement",
			litmus.New("a", [][]litmus.Op{{litmus.R(0), litmus.W(0), litmus.R(0)}}, litmus.WithRMW(0, 0)),
			litmus.New("b", [][]litmus.Op{{litmus.R(0), litmus.W(0), litmus.R(0)}}), false},
		{"empty test", &litmus.Test{}, &litmus.Test{}, true},
	}
	for _, c := range cases {
		oracleSame := oracleKey(c.a, nil) == oracleKey(c.b, nil)
		if oracleSame != c.same {
			t.Fatalf("%s: oracle says same=%v, case expects %v", c.name, oracleSame, c.same)
		}
		if got := canon.ProgramKey(c.a) == canon.ProgramKey(c.b); got != c.same {
			t.Errorf("%s: keys equal = %v, want %v", c.name, got, c.same)
		}
	}
}
