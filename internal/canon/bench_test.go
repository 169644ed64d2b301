package canon_test

import (
	"testing"

	"memsynth/internal/canon"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/synth"
)

// TestProgramKeyAllocs: a key costs a fixed handful of allocations (the
// scratch ints, the two byte buffers' backing array, the result string),
// however many of the 4! thread permutations the search visits.
func TestProgramKeyAllocs(t *testing.T) {
	for name, prog := range map[string]*litmus.Test{
		"IRIW writes and reads": litmus.New("4x1", [][]litmus.Op{
			{litmus.W(0)}, {litmus.W(1)}, {litmus.R(0)}, {litmus.R(1)},
		}),
		"identical threads": litmus.New("4x1", [][]litmus.Op{
			{litmus.W(0)}, {litmus.W(0)}, {litmus.W(0)}, {litmus.W(0)},
		}),
		"deps, rmw and groups": litmus.New("4x2", [][]litmus.Op{
			{litmus.R(0), litmus.W(1)}, {litmus.R(1), litmus.W(0)},
			{litmus.R(0), litmus.W(0)}, {litmus.W(1), litmus.F(litmus.FSync)},
		}, litmus.WithDep(0, 0, 1, litmus.DepData), litmus.WithDep(1, 0, 1, litmus.DepAddr),
			litmus.WithRMW(2, 0), litmus.WithGroups(0, 1, 0, 1)),
	} {
		if allocs := testing.AllocsPerRun(100, func() { canon.ProgramKey(prog) }); allocs > 4 {
			t.Errorf("%s: ProgramKey makes %.0f allocations, want at most 4", name, allocs)
		}
	}
}

// keySink keeps the benchmarked key computations from being optimized out.
var keySink string

// BenchmarkProgramKey keys the c11 bound-4 program stream (the engine's
// generation order, before dedupe); run with -benchmem. The oracle
// sub-benchmark is the original fmt-based key on the same stream.
func BenchmarkProgramKey(b *testing.B) {
	var progs []*litmus.Test
	err := synth.EnumeratePrograms(memmodel.C11().Vocab(), synth.Options{MaxEvents: 4}, func(t *litmus.Test) bool {
		progs = append(progs, t)
		return true
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		key  func(*litmus.Test) string
	}{
		{"key", canon.ProgramKey},
		{"oracle", func(t *litmus.Test) string { return oracleKey(t, nil) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				keySink = c.key(progs[i%len(progs)])
			}
		})
	}
}
