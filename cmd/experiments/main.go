// Command experiments regenerates the data behind every table and figure of
// the paper's evaluation (§6) at laptop-scale bounds. Each experiment
// prints the same rows/series the paper reports; EXPERIMENTS.md records the
// paper-vs-measured comparison.
//
// Usage:
//
//	experiments -exp list
//	experiments -exp table2
//	experiments -exp table4 -bound 6
//	experiments -exp fig13 -bound 5      # TSO counts + runtimes per bound
//	experiments -exp fig16 -bound 4      # Power
//	experiments -exp fig20 -bound 4      # SCC
//	experiments -exp c11 -bound 4
//	experiments -exp diy -bound 4        # diy baseline comparison
//	experiments -exp stress -bound 4     # native stress execution + cross-check
//	experiments -exp faults -stress      # fault matrix with a host row
//	experiments -exp all -bound 4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"time"

	"memsynth"
	"memsynth/internal/catlint"
	"memsynth/internal/profiling"
	"memsynth/internal/store"
)

var (
	workers   = flag.Int("workers", 0, "synthesis worker goroutines (0 = all CPUs)")
	admitN    = flag.String("admit", "", "fast admissibility filter for every run (auto, off; empty = auto)")
	progress  = flag.Bool("progress", false, "stream live synthesis progress to stderr")
	timeout   = flag.Duration("timeout", 0, "abort each synthesis after this long, keeping partial results (0 = none)")
	storeDir  = flag.String("store", "", "content-addressed suite store directory (shared with memsynthd and memsynth -store)")
	modelFile = flag.String("model-file", "", "compile and register a cat-style model definition; run it with -exp custom")
	nolint    = flag.Bool("nolint", false, "skip the static analysis of -model-file definitions")

	stressRun   = flag.Bool("stress", false, "stress-execute synthesized suites natively on this host (adds a host row to -exp faults; enables -exp stress)")
	stressIters = flag.Int("stress-iters", 0, "iterations per stress-executed test (0 = default)")
	stressMode  = flag.String("stress-mode", "atomic", "stress compile scheme: atomic or plain")
	stressSeed  = flag.Int64("stress-seed", 0, "stress schedule seed (0 picks one; the seed used is printed)")
)

// stressOptions resolves the shared -stress-* flags.
func stressOptions() memsynth.StressOptions {
	mode, err := memsynth.ParseStressMode(*stressMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return memsynth.StressOptions{Mode: mode, Iterations: *stressIters, Seed: *stressSeed}
}

// customModel is the name of the -model-file model, once registered.
var customModel string

// runCtx is the experiment-wide context (Ctrl-C cancels the runs).
var runCtx = context.Background()

// suiteStore lazily opens the -store directory once; every synthesis in a
// multi-experiment run (e.g. -exp all) then shares the same cache, and
// repeat invocations skip already-synthesized (model, bounds) points.
var suiteStore = struct {
	once sync.Once
	st   *store.Store
}{}

func openStore() *store.Store {
	if *storeDir == "" {
		return nil
	}
	suiteStore.once.Do(func() {
		st, err := store.Open(*storeDir, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		suiteStore.st = st
	})
	return suiteStore.st
}

// synthesize runs one synthesis with the shared -workers/-progress/-timeout
// settings applied; an interrupted run returns its partial result with a
// stderr note. With -store, cache hits skip the engine and fresh complete
// results are persisted.
func synthesize(m memsynth.Model, opts memsynth.Options) *memsynth.Result {
	opts.Workers = *workers
	opts.Admit = *admitN
	if *progress {
		opts.Progress = func(ev memsynth.ProgressEvent) {
			if ev.Phase == memsynth.PhaseTick {
				fmt.Fprintf(os.Stderr, "\r  [%s] size=%d raw=%d distinct=%d execs=%d tests=%d %.1fs   ",
					ev.Model, ev.Size, ev.ProgramsRaw, ev.Programs, ev.Executions, ev.Entries, ev.Elapsed.Seconds())
			} else if ev.Phase == memsynth.PhaseDone {
				fmt.Fprint(os.Stderr, "\r\033[K")
			}
		}
		opts.ProgressInterval = 250 * time.Millisecond
	}
	ctx := runCtx
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	st := openStore()
	if st != nil {
		switch ss, err := st.Get(store.DigestModel(m, opts)); {
		case err == nil:
			res, rerr := ss.Result()
			if rerr != nil {
				fmt.Fprintln(os.Stderr, rerr)
				os.Exit(1)
			}
			return res
		case !errors.Is(err, store.ErrNotFound):
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	res, err := memsynth.SynthesizeContext(ctx, m, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if st != nil && !res.Stats.Interrupted {
		if _, err := st.Put(res); err != nil {
			fmt.Fprintf(os.Stderr, "warning: store: %v\n", err)
		}
	}
	if res.Stats.Interrupted {
		fmt.Fprintf(os.Stderr, "note: %s synthesis interrupted after %v; results are partial\n",
			res.Model, res.Stats.Elapsed.Round(time.Millisecond))
	}
	return res
}

func main() {
	var (
		exp   = flag.String("exp", "list", "experiment to run")
		bound = flag.Int("bound", 4, "maximum synthesis bound")
	)
	prof := profiling.AddFlags(flag.CommandLine)
	flag.Parse()
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer prof.Stop()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	runCtx = ctx

	if *modelFile != "" {
		src, err := os.ReadFile(*modelFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		m, err := memsynth.CompileModel(string(src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", *modelFile, err)
			os.Exit(1)
		}
		if !*nolint {
			report := catlint.Lint(string(src), catlint.Options{})
			for _, f := range report.Findings {
				fmt.Fprintf(os.Stderr, "%s:%s\n", *modelFile, f)
			}
			if report.HasErrors() {
				os.Exit(1)
			}
		}
		if err := memsynth.RegisterModel(m); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		customModel = m.Name()
	}

	experiments := map[string]func(int){
		"table2": table2,
		"table4": table4,
		"fig13":  func(b int) { figCounts("tso", b) },
		"fig16":  func(b int) { figCounts("power", b) },
		"fig20":  func(b int) { figCounts("scc", b) },
		"c11":    func(b int) { figCounts("c11", b) },
		"hsa":    func(b int) { figCounts("hsa", b) },
		"armv8":  func(b int) { figCounts("armv8", b) },
		"diy":    diyCompare,
		"random": randomCompare,
		"faults": faultMatrix,
		"stress": stressSuites,
		"custom": func(b int) {
			if customModel == "" {
				fmt.Fprintln(os.Stderr, "-exp custom needs -model-file")
				os.Exit(1)
			}
			figCounts(customModel, b)
		},
	}
	switch *exp {
	case "list":
		fmt.Println("experiments: table2 table4 fig13 fig16 fig20 c11 hsa armv8 diy random faults stress custom all")
	case "all":
		for _, name := range []string{"table2", "table4", "fig13", "fig16", "fig20", "c11", "hsa", "armv8", "diy", "random", "faults"} {
			fmt.Printf("\n===== %s =====\n", name)
			experiments[name](*bound)
		}
	default:
		f, ok := experiments[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
			os.Exit(1)
		}
		f(*bound)
	}
}

// table2 prints the relaxation-applicability matrix (paper Table 2).
func table2(int) {
	fmt.Println("Relaxation applicability (paper Table 2), implemented models:")
	fmt.Printf("%-8s %s\n", "model", "applicable relaxations")
	for _, m := range memsynth.Models() {
		fmt.Printf("%-8s %s\n", m.Name(), strings.Join(memsynth.RelaxationTags(m), " "))
	}
	fmt.Println("\nNot implemented (paper rows reproduced in documentation only):")
	fmt.Println("itanium  RI DRMW DF DMO   (predates out-of-thin-air characterization)")
	fmt.Println("opencl   RI DRMW DF DMO DS (see the hsa scoped model)")
}

// table4 classifies the Owens suite against the synthesized TSO suites.
func table4(bound int) {
	tso, _ := memsynth.ModelByName("tso")
	res := synthesize(tso, memsynth.Options{MaxEvents: bound})
	fmt.Printf("TSO union @%d: %d tests\n", bound, len(res.Union.Entries))
	both, baseOnly, unmatched := 0, 0, 0
	for _, bt := range memsynth.OwensSuite() {
		if bt.Forbidden == nil {
			continue
		}
		verdict := memsynth.CheckMinimal(tso, bt.Forbidden)
		if len(verdict.MinimalFor()) > 0 {
			both++
			fmt.Printf("  %-18s (%d insts): minimal (Both)\n", bt.Name, bt.Test.NumEvents())
			continue
		}
		found := false
		for _, e := range res.Union.Entries {
			if memsynth.Contains(bt.Forbidden, e.Exec) {
				fmt.Printf("  %-18s (%d insts): Owens-only, contains [%v]\n",
					bt.Name, bt.Test.NumEvents(), e.Test)
				found = true
				break
			}
		}
		if found {
			baseOnly++
		} else {
			unmatched++
			fmt.Printf("  %-18s (%d insts): no contained minimal test at bound %d\n",
				bt.Name, bt.Test.NumEvents(), bound)
		}
	}
	fmt.Printf("summary: %d minimal, %d contain a minimal subtest, %d unresolved (raise -bound)\n",
		both, baseOnly, unmatched)
}

// figCounts prints, per bound, the per-axiom suite sizes, union size, and
// runtime — the data of Figs. 13, 16, and 20.
func figCounts(modelName string, maxBound int) {
	model, err := memsynth.ModelByName(modelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s: per-axiom suite sizes and runtime per bound (cumulative)\n", modelName)
	header := []string{"bound"}
	res0 := synthesize(model, memsynth.Options{MaxEvents: 2})
	header = append(header, res0.AxiomNames()...)
	header = append(header, "union", "forbidden", "runtime")
	fmt.Println(strings.Join(header, "\t"))
	for b := 2; b <= maxBound; b++ {
		res := synthesize(model, memsynth.Options{MaxEvents: b, CountForbidden: b <= 4})
		row := []string{fmt.Sprint(b)}
		for _, name := range res.AxiomNames() {
			row = append(row, fmt.Sprint(len(res.PerAxiom[name].Entries)))
		}
		row = append(row, fmt.Sprint(len(res.Union.Entries)))
		if b <= 4 {
			row = append(row, fmt.Sprint(res.Stats.ForbiddenOutcomes))
		} else {
			row = append(row, "-")
		}
		row = append(row, res.Stats.Elapsed.String())
		fmt.Println(strings.Join(row, "\t"))
	}
}

// diyCompare contrasts the diy-style cycle generator with synthesis
// (paper §2.1): redundancy and minimality rate of the diy suite.
func diyCompare(bound int) {
	tso, _ := memsynth.ModelByName("tso")
	witnesses := memsynth.DiyGenerate(diyTSOAlphabet(), 3, bound)
	distinct := map[string]bool{}
	forbidden, minimalCount := 0, 0
	for _, x := range witnesses {
		key := memsynth.CanonicalKey(x)
		if distinct[key] {
			continue
		}
		distinct[key] = true
		verdict := memsynth.CheckMinimal(tso, x)
		if len(verdict.ViolatedAxioms) > 0 {
			forbidden++
			if len(verdict.MinimalFor()) > 0 {
				minimalCount++
			}
		}
	}
	res := synthesize(tso, memsynth.Options{MaxEvents: 2 * bound})
	fmt.Printf("diy cycles (len 3..%d): %d realized, %d distinct, %d forbidden, %d minimal\n",
		bound, len(witnesses), len(distinct), forbidden, minimalCount)
	fmt.Printf("synthesized union @%d: %d tests (all minimal by construction)\n",
		2*bound, len(res.Union.Entries))
}

func diyTSOAlphabet() []memsynth.DiyEdge {
	// Mirrors internal/diy.TSOAlphabet via the public facade types.
	return memsynth.DiyTSOAlphabet()
}

// randomCompare contrasts random generation (§2.1's third traditional
// source) with synthesis: coverage of the minimal patterns per test budget.
func randomCompare(bound int) {
	tso, _ := memsynth.ModelByName("tso")
	res := synthesize(tso, memsynth.Options{MaxEvents: bound})
	target := map[string]bool{}
	for _, e := range res.Union.Entries {
		target[e.Key] = true
	}
	g := memsynth.NewRandomGenerator(tso, memsynth.RandomOptions{MaxEvents: bound}, 1)
	covered := map[string]bool{}
	const budget = 5000
	hits := 0
	for i := 1; i <= budget; i++ {
		lt := g.Test()
		w := memsynth.ForbiddenWitness(tso, lt)
		if w == nil {
			continue
		}
		if v := memsynth.CheckMinimal(tso, w); len(v.MinimalFor()) > 0 {
			key := memsynth.CanonicalKey(w)
			if target[key] && !covered[key] {
				covered[key] = true
				hits++
				fmt.Printf("  random test %5d covered pattern %d/%d\n", i, hits, len(target))
			}
		}
	}
	fmt.Printf("random generation: %d tests -> %d/%d minimal patterns (synthesis: all %d by construction)\n",
		budget, len(covered), len(target), len(target))
}

// faultMatrix runs the synthesized suite against the fault-injected x86-TSO
// machines — the black-box testing loop the suites exist for. With
// -stress, the matrix gains a host row: the suite is also stress-executed
// natively and cross-checked against the model.
func faultMatrix(bound int) {
	if bound < 6 {
		bound = 6 // SB+mfences (needed for the fence fault) has 6 instructions
	}
	tso, _ := memsynth.ModelByName("tso")
	res := synthesize(tso, memsynth.Options{MaxEvents: bound})
	var tests []*memsynth.Test
	for _, e := range res.Union.Entries {
		tests = append(tests, e.Test)
	}
	fmt.Printf("suite: %d synthesized minimal tests (bound %d)\n", len(tests), bound)
	rows := memsynth.FaultDetectionMatrix(tso, tests)
	if *stressRun {
		var err error
		var srep *memsynth.StressSuiteReport
		rows, srep, err = memsynth.FaultDetectionMatrixStress(runCtx, tso, tests, stressOptions())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer fmt.Printf("host run: %d tests, %d iterations, seed %d, mode %s\n",
			srep.TestsRun, srep.Iterations, srep.Seed, srep.Mode)
	}
	for _, row := range rows {
		switch {
		case row.IsHost():
			fmt.Printf("  %-16s forbidden outcomes observed: %v\n", row.Machine, row.Detected)
		case row.Fault.String() == "none":
			fmt.Printf("  %-16s false positives: %v\n", "correct machine", row.Detected)
		case row.Detected:
			fmt.Printf("  %-16s DETECTED by %v\n", row.Fault, row.FirstTest)
		default:
			fmt.Printf("  %-16s NOT DETECTED\n", row.Fault)
		}
	}
}

// stressSuites synthesizes the sc and tso suites and stress-executes them
// natively, reporting throughput and the model cross-check — the "run the
// synthesized suite on real hardware" leg of the paper's workflow.
func stressSuites(bound int) {
	opts := stressOptions()
	for _, name := range []string{"sc", "tso"} {
		model, _ := memsynth.ModelByName(name)
		res := synthesize(model, memsynth.Options{MaxEvents: bound})
		var tests []*memsynth.Test
		for _, e := range res.Union.Entries {
			tests = append(tests, e.Test)
		}
		rep := memsynth.StressSuite(runCtx, model, tests, opts)
		fmt.Printf("%s @%d: %d tests, %d iterations in %v, seed %d, mode %s\n",
			name, bound, rep.TestsRun, rep.Iterations,
			rep.Elapsed.Round(time.Millisecond), rep.Seed, rep.Mode)
		for _, r := range rep.Reports {
			fmt.Printf("  %-24s %8d iters  %7.0f iters/s  %d outcomes\n",
				r.Test, r.Iterations, r.IterationsPerSecond(), len(r.Outcomes))
		}
		if rep.Unexplained > 0 {
			fmt.Printf("  UNEXPLAINED: %d iterations observed model-forbidden outcomes\n", rep.Unexplained)
			for _, v := range rep.Violations {
				fmt.Printf("    %v\n", v)
			}
		} else {
			fmt.Printf("  all observed outcomes allowed by %s\n", name)
		}
	}
}
