// Command memsynth synthesizes comprehensive minimal litmus-test suites
// from an axiomatic memory model specification (the paper's §5 flow).
//
// Usage:
//
//	memsynth -model tso -bound 4            # union suite, human-readable
//	memsynth -model power -bound 4 -axiom no_thin_air
//	memsynth -model scc -bound 4 -format litmus > suite.litmus
//	memsynth -model tso -bound 5 -stats
//	memsynth -model tso -bound 6 -workers 8 -progress
//	memsynth -model power -bound 5 -timeout 30s   # partial suite on deadline
//	memsynth -model tso -bound 4 -store ./suites  # reuse the memsynthd cache
//	memsynth -model-file my.cat -bound 4    # user-defined cat model (DESIGN.md §9)
//
// Synthesis honors -timeout and Ctrl-C: an interrupted run prints the
// partial suite found so far (marked as partial in the stats line).
//
// With -store, the run goes through the same content-addressed suite
// store the memsynthd daemon uses: a cache hit rehydrates the stored
// suite (skipping synthesis entirely), and a cache miss persists the
// fresh result for later CLI or daemon runs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"memsynth"
	"memsynth/internal/catlint"
	"memsynth/internal/profiling"
	"memsynth/internal/store"
)

func main() {
	var (
		modelName = flag.String("model", "tso", "memory model (sc, tso, power, armv7, armv8, scc, c11, hsa)")
		modelFile = flag.String("model-file", "", "compile and use a cat-style model definition file instead of -model")
		nolint    = flag.Bool("nolint", false, "skip the static analysis of -model-file definitions")
		admitN    = flag.String("admit", "", "fast admissibility filter (auto, off; empty = auto); output is identical, speed differs")
		bound     = flag.Int("bound", 4, "maximum instruction count")
		axiom     = flag.String("axiom", "union", "axiom suite to print, or 'union'")
		format    = flag.String("format", "pretty", "output format: pretty, litmus, asm, or dot")
		threads   = flag.Int("threads", 4, "maximum thread count")
		addrs     = flag.Int("addrs", 3, "maximum distinct addresses")
		workers   = flag.Int("workers", 0, "synthesis worker goroutines (0 = all CPUs)")
		timeout   = flag.Duration("timeout", 0, "abort synthesis after this long, keeping partial results (0 = none)")
		progress  = flag.Bool("progress", false, "stream live synthesis progress to stderr")
		stats     = flag.Bool("stats", false, "print synthesis statistics")
		outDir    = flag.String("out", "", "write one .litmus file per test into this directory instead of stdout")
		storeDir  = flag.String("store", "", "content-addressed suite store directory (shared with memsynthd): serve cache hits, populate on miss")
	)
	prof := profiling.AddFlags(flag.CommandLine)
	flag.Parse()
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer prof.Stop()

	var model memsynth.Model
	var err error
	if *modelFile != "" {
		src, rerr := os.ReadFile(*modelFile)
		if rerr != nil {
			fmt.Fprintln(os.Stderr, rerr)
			os.Exit(1)
		}
		model, err = memsynth.CompileModel(string(src))
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
	} else {
		model, err = memsynth.ModelByName(*modelName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	if *timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := memsynth.Options{
		MaxEvents:  *bound,
		MaxThreads: *threads,
		MaxAddrs:   *addrs,
		Workers:    *workers,
		Admit:      *admitN,
	}
	if *progress {
		opts.Progress = printProgress
		opts.ProgressInterval = 250 * time.Millisecond
	}
	if err := opts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var st *store.Store
	var res *memsynth.Result
	if *storeDir != "" {
		st, err = store.Open(*storeDir, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		digest := store.DigestModel(model, opts)
		switch ss, err := st.Get(digest); {
		case err == nil:
			res, err = ss.Result()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "store hit %s (synthesized %s, engine v%s); skipping synthesis\n",
				digest[:12], ss.Manifest.CreatedAt.Format(time.RFC3339), ss.Manifest.EngineVersion)
		case !errors.Is(err, store.ErrNotFound):
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if res == nil {
		res, err = memsynth.SynthesizeContext(ctx, model, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if st != nil && !res.Stats.Interrupted {
			if ss, err := st.Put(res); err != nil {
				fmt.Fprintf(os.Stderr, "warning: store: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "stored suite as %s\n", ss.Manifest.Digest[:12])
			}
		}
	}
	if res.Stats.Interrupted {
		fmt.Fprintf(os.Stderr, "synthesis interrupted after %v; printing partial suite\n", res.Stats.Elapsed.Round(time.Millisecond))
	}

	suite := res.Union
	if *axiom != "union" {
		s, ok := res.PerAxiom[*axiom]
		if !ok {
			fmt.Fprintf(os.Stderr, "model %s has no axiom %q (have: %s)\n",
				model.Name(), *axiom, strings.Join(res.AxiomNames(), ", "))
			os.Exit(1)
		}
		suite = s
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for i, e := range suite.Entries {
			path := filepath.Join(*outDir, fmt.Sprintf("%s-%s-%03d.litmus", model.Name(), suite.Axiom, i+1))
			content := fmt.Sprintf("# synthesized by memsynth (%s/%s, bound %d)\n%s# forbid-witness: %s\n",
				model.Name(), suite.Axiom, *bound, memsynth.FormatTest(e.Test), e.Exec.OutcomeString())
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		fmt.Fprintf(os.Stderr, "wrote %d tests to %s\n", len(suite.Entries), *outDir)
		return
	}

	for i, e := range suite.Entries {
		switch *format {
		case "litmus":
			// The witness rides as a comment so the output reparses with
			// ParseSuite (and so pipes into memstress), same as -out files.
			fmt.Printf("# %s/%s test %d\n%s# forbid-witness: %s\n\n",
				model.Name(), suite.Axiom, i+1, memsynth.FormatTest(e.Test), e.Exec.OutcomeString())
		case "asm":
			target, ok := memsynth.RenderTargetFor(model.Name())
			if !ok {
				fmt.Fprintf(os.Stderr, "no rendering target for model %s\n", model.Name())
				os.Exit(1)
			}
			listing, err := memsynth.RenderTest(target, e.Test, e.Exec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "test %d: %v\n", i+1, err)
				continue
			}
			fmt.Printf("%s\n", listing)
		case "dot":
			fmt.Println(memsynth.RenderDOT(e.Exec))
		default:
			fmt.Printf("%3d. %v\n     forbidden: %s\n", i+1, e.Test, e.Exec.OutcomeString())
		}
	}

	if *stats {
		partial := ""
		if res.Stats.Interrupted {
			partial = " (partial: interrupted)"
		}
		fmt.Fprintf(os.Stderr,
			"model=%s bound=%d suite=%s tests=%d | programs=%d (raw %d) executions=%d fast-decided=%d elapsed=%v%s\n",
			model.Name(), *bound, suite.Axiom, len(suite.Entries),
			res.Stats.Programs, res.Stats.ProgramsRaw, res.Stats.Executions, res.Stats.ExecutionsFast,
			res.Stats.Elapsed, partial)
		st := res.Stats.Stages
		fmt.Fprintf(os.Stderr, "  stages: generation=%v dedupe=%v execution=%v minimality=%v (worker stages are CPU time)\n",
			st.Generation.Round(time.Millisecond), st.Dedupe.Round(time.Millisecond),
			st.Execution.Round(time.Millisecond), st.Minimality.Round(time.Millisecond))
		for _, name := range res.AxiomNames() {
			fmt.Fprintf(os.Stderr, "  axiom %-16s %4d tests\n", name, len(res.PerAxiom[name].Entries))
		}
	}
}

// printProgress renders streamed engine events as a live stderr status
// line (phase transitions get their own lines; ticks overwrite in place).
func printProgress(ev memsynth.ProgressEvent) {
	switch ev.Phase {
	case memsynth.PhaseGenerate:
		fmt.Fprintf(os.Stderr, "\n[%s size=%d] generating programs...\n", ev.Model, ev.Size)
	case memsynth.PhaseExplore:
		fmt.Fprintf(os.Stderr, "[%s size=%d] exploring executions (raw=%d distinct=%d)...\n",
			ev.Model, ev.Size, ev.ProgramsRaw, ev.Programs)
	case memsynth.PhaseTick:
		fmt.Fprintf(os.Stderr, "\r  raw=%d distinct=%d execs=%d tests=%d %.1fs   ",
			ev.ProgramsRaw, ev.Programs, ev.Executions, ev.Entries, ev.Elapsed.Seconds())
	case memsynth.PhaseDone:
		state := "done"
		if ev.Interrupted {
			state = "interrupted"
		}
		fmt.Fprintf(os.Stderr, "\r[%s] %s: raw=%d distinct=%d execs=%d tests=%d in %v\n",
			ev.Model, state, ev.ProgramsRaw, ev.Programs, ev.Executions, ev.Entries,
			ev.Elapsed.Round(time.Millisecond))
	}
}
