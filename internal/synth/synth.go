// Package synth implements the paper's synthesis methodology (§5): it
// exhaustively enumerates litmus tests up to a size bound over a memory
// model's instruction vocabulary, enumerates each test's candidate
// executions, applies the minimality criterion of package minimal, and
// collects one canonical representative of every symmetry class into
// per-axiom suites plus a per-model union suite.
//
// The engine is context-aware and streaming — extensions addressing the
// super-exponential runtimes the paper reports (§7):
//
//   - SynthesizeContext honors cancellation and deadlines, returning the
//     partial suites accumulated so far with Stats.Interrupted set.
//   - Per-program work fans out over Options.Workers goroutines. Dedupe
//     uses N-way sharded canonical-key maps (no global mutex), and each
//     symmetry class keeps its generation-order-first representative, so
//     the output is byte-identical for every worker count.
//   - Options.Progress streams phase transitions and counter snapshots
//     while the run is in flight.
//
// Each instruction-count size runs in two phases: generate (skeleton
// enumeration feeding canonical-key dedupe workers) and explore (workers
// enumerate executions of each distinct program and apply the minimality
// criterion). Per-program findings are buffered and merged in generation
// order, which reproduces the sequential engine's output exactly.
package synth

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"memsynth/internal/admit"
	"memsynth/internal/canon"
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/minimal"
)

// Entry is one synthesized litmus test: a program together with the
// forbidden outcome (execution) that witnesses its minimality.
type Entry struct {
	Test *litmus.Test
	Exec *exec.Execution
	// Key is the canonical symmetry-class key of (Test, Exec).
	Key string
	// Size is the instruction count.
	Size int
}

// Suite is a set of synthesized tests for one axiom (or the union).
type Suite struct {
	Model   string
	Axiom   string // "union" for the union suite
	Entries []Entry
	keys    map[string]bool
}

func newSuite(model, axiom string) *Suite {
	return &Suite{Model: model, Axiom: axiom, keys: make(map[string]bool)}
}

func (s *Suite) add(e Entry) bool {
	if s.keys[e.Key] {
		return false
	}
	s.keys[e.Key] = true
	s.Entries = append(s.Entries, e)
	return true
}

// sortEntries fixes a deterministic order (size, then canonical key).
func (s *Suite) sortEntries() {
	sort.Slice(s.Entries, func(i, j int) bool {
		if s.Entries[i].Size != s.Entries[j].Size {
			return s.Entries[i].Size < s.Entries[j].Size
		}
		return s.Entries[i].Key < s.Entries[j].Key
	})
}

// Has reports whether the suite contains the symmetry class of key.
func (s *Suite) Has(key string) bool { return s.keys[key] }

// CountUpTo returns the number of entries with Size <= bound.
func (s *Suite) CountUpTo(bound int) int {
	n := 0
	for _, e := range s.Entries {
		if e.Size <= bound {
			n++
		}
	}
	return n
}

// StageTimes breaks the synthesis work down by pipeline stage. Worker
// stages (Dedupe, Execution, Minimality) are summed across goroutines, so
// they are CPU time and can exceed Stats.Elapsed on parallel runs.
// Generation is the wall-clock time of the skeleton enumerator (it
// includes backpressure waiting when the dedupe workers lag).
type StageTimes struct {
	// Generation is skeleton enumeration (thread shapes, instruction
	// assignments, addresses, deps, scopes).
	Generation time.Duration
	// Dedupe is canonical-key computation plus sharded-map claims.
	Dedupe time.Duration
	// Execution is candidate-execution enumeration.
	Execution time.Duration
	// Minimality is the per-execution minimality criterion.
	Minimality time.Duration
}

// Stats reports synthesis work counters.
type Stats struct {
	// ProgramsRaw counts generated programs before symmetry dedupe.
	ProgramsRaw int
	// Programs counts distinct canonical programs whose executions were
	// explored.
	Programs int
	// Executions counts candidate executions actually enumerated and
	// checked. It deliberately excludes fast-decided work so partial
	// (interrupted) runs report the two kinds of explore progress
	// separately instead of conflating them.
	Executions int
	// ExecutionsFast counts candidate executions decided by the fast
	// admissibility filter (internal/admit) without being enumerated:
	// each refuted reads-from assignment accounts for all of its
	// coherence/sc extensions. On a completed run Executions +
	// ExecutionsFast equals the admit-off Executions count.
	ExecutionsFast int
	// ForbiddenOutcomes counts distinct canonical forbidden
	// (program, outcome) pairs (only when Options.CountForbidden).
	ForbiddenOutcomes int
	// Entries counts distinct minimal entries found across all axioms —
	// always equal to len(Union.Entries) on an uninterrupted run.
	Entries int
	// Elapsed is the wall-clock synthesis time.
	Elapsed time.Duration
	// Stages is the per-stage timing breakdown.
	Stages StageTimes
	// Interrupted reports that the run was cancelled (context done)
	// before completing; the suites hold the partial results found
	// up to that point.
	Interrupted bool
}

// Result is the outcome of one synthesis run.
type Result struct {
	Model   string
	Options Options
	// ModelSource identifies where the model came from: "builtin" for
	// native Go models, or the definition language (e.g. "cat") for
	// compiled ones.
	ModelSource string
	// ModelDigest is the hash of the compiled model's normalized
	// definition ("" for built-ins). The store folds it into suite
	// digests so same-named but different definitions never collide.
	ModelDigest string
	// Admit records whether the fast-admissibility filter ran: "fast"
	// when active, "off" when disabled by Options.Admit or unsupported by
	// the model (internal/admit). It is provenance only and excluded from
	// store digests.
	Admit    string
	PerAxiom map[string]*Suite
	Union    *Suite
	Stats    Stats
}

// AxiomNames returns the axiom suite names in sorted order.
func (r *Result) AxiomNames() []string {
	var names []string
	for name := range r.PerAxiom {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// foundEntry is one minimal-test instance a worker found, with the axiom
// indices it is minimal for.
type foundEntry struct {
	axioms []int
	entry  Entry
}

// Synthesize runs exhaustive minimal-test synthesis for model m under the
// given bounds. It is a thin wrapper over SynthesizeContext with a
// background context; it panics on invalid Options (a programmer error —
// use Options.Validate or SynthesizeContext to handle it as a value).
func Synthesize(m memmodel.Model, opts Options) *Result {
	res, err := SynthesizeContext(context.Background(), m, opts)
	if err != nil {
		panic(fmt.Sprintf("synth.Synthesize: %v", err))
	}
	return res
}

// SynthesizeContext runs minimal-test synthesis for model m, honoring ctx
// cancellation and deadline. A cancelled run stops promptly and returns
// the suites synthesized so far with Stats.Interrupted set (and a nil
// error — partial results are results). The only error returned is an
// Options validation failure.
func SynthesizeContext(ctx context.Context, m memmodel.Model, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return newEngine(m, opts.withDefaults()).run(ctx), nil
}

// engine holds one synthesis run's shared state. Counters are atomics so
// workers update them without locks and the progress sink can snapshot
// them at any moment.
type engine struct {
	model  memmodel.Model
	opts   Options
	axioms []memmodel.Axiom

	stopped atomic.Bool  // set when ctx is done; checked at cancellation points
	size    atomic.Int32 // instruction-count phase currently running

	programsRaw    atomic.Int64
	programs       atomic.Int64
	executions     atomic.Int64
	executionsFast atomic.Int64
	entries        atomic.Int64
	forbidden      atomic.Int64

	// admitOn enables the per-worker fast-admissibility checkers: the
	// model has a registered algorithm and Options.Admit did not opt out.
	admitOn bool

	genNS    atomic.Int64
	dedupeNS atomic.Int64
	execNS   atomic.Int64
	minNS    atomic.Int64

	seenEntry     *shardedSet
	seenForbidden *shardedSet

	start time.Time
	prog  *progressSink
	res   *Result
}

func newEngine(m memmodel.Model, opts Options) *engine {
	e := &engine{
		model:     m,
		opts:      opts,
		axioms:    m.Axioms(),
		seenEntry: newShardedSet(opts.Workers),
		res: &Result{
			Model:    m.Name(),
			Options:  opts,
			PerAxiom: make(map[string]*Suite),
			Union:    newSuite(m.Name(), "union"),
		},
	}
	e.res.ModelSource, e.res.ModelDigest = memmodel.SourceOf(m)
	if opts.Admit != "off" {
		if ok, _ := admit.Supports(m); ok {
			e.admitOn = true
		}
	}
	e.res.Admit = "off"
	if e.admitOn {
		e.res.Admit = "fast"
	}
	for _, a := range e.axioms {
		e.res.PerAxiom[a.Name] = newSuite(m.Name(), a.Name)
	}
	if opts.CountForbidden {
		e.seenForbidden = newShardedSet(opts.Workers)
	}
	if opts.Progress != nil {
		e.prog = &progressSink{fn: opts.Progress, e: e}
	}
	return e
}

func (e *engine) run(ctx context.Context) *Result {
	e.start = time.Now()

	// Watch ctx on a side goroutine and fold it into one atomic flag the
	// hot paths can poll cheaply.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			e.stopped.Store(true)
		case <-watchDone:
		}
	}()
	if e.prog != nil {
		go e.prog.loop(e.opts.ProgressInterval, watchDone)
	}

	for n := e.opts.MinEvents; n <= e.opts.MaxEvents; n++ {
		if e.stopped.Load() {
			break
		}
		e.size.Store(int32(n))
		e.prog.emit(PhaseGenerate, false)
		winners := e.generateAndDedupe(n)
		if e.stopped.Load() {
			break
		}
		e.prog.emit(PhaseExplore, false)
		e.merge(e.explore(winners))
	}

	e.res.Union.sortEntries()
	for _, s := range e.res.PerAxiom {
		s.sortEntries()
	}
	if e.seenForbidden != nil {
		e.res.Stats.ForbiddenOutcomes = e.seenForbidden.Len()
	}
	e.res.Stats.ProgramsRaw = int(e.programsRaw.Load())
	e.res.Stats.Programs = int(e.programs.Load())
	e.res.Stats.Executions = int(e.executions.Load())
	e.res.Stats.ExecutionsFast = int(e.executionsFast.Load())
	e.res.Stats.Entries = int(e.entries.Load())
	e.res.Stats.Stages = StageTimes{
		Generation: time.Duration(e.genNS.Load()),
		Dedupe:     time.Duration(e.dedupeNS.Load()),
		Execution:  time.Duration(e.execNS.Load()),
		Minimality: time.Duration(e.minNS.Load()),
	}
	e.res.Stats.Interrupted = e.stopped.Load()
	e.res.Stats.Elapsed = time.Since(e.start)
	e.prog.emit(PhaseDone, e.res.Stats.Interrupted)
	return e.res
}

// seqTest is one generated program tagged with its generation order.
type seqTest struct {
	seq int64
	t   *litmus.Test
}

// generateAndDedupe enumerates all size-n program skeletons and fans their
// canonical-key computation out over the workers. It returns one
// representative per symmetry class — the generation-order-first program,
// sorted by generation order — so downstream processing is deterministic.
func (e *engine) generateAndDedupe(n int) []progClaim {
	claims := newClaimMap(e.opts.Workers)
	ch := make(chan seqTest, 4*e.opts.Workers)
	var wg sync.WaitGroup
	for w := 0; w < e.opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dedupeNS int64
			for st := range ch {
				if e.stopped.Load() {
					continue // drain so the producer never blocks
				}
				t0 := time.Now()
				if claims.Offer(canon.ProgramKey(st.t), st.seq, st.t) {
					e.programs.Add(1)
				}
				dedupeNS += int64(time.Since(t0))
			}
			e.dedupeNS.Add(dedupeNS)
		}()
	}

	vocab := e.model.Vocab()
	gen := &generator{
		vocab:         vocab,
		opts:          e.opts,
		pruneIsolated: !e.opts.KeepIsolatedAddrs && len(vocab.DepTypes) == 0,
	}
	var seq int64
	t0 := time.Now()
	gen.run(n, func(t *litmus.Test) bool {
		if e.stopped.Load() {
			return false
		}
		e.programsRaw.Add(1)
		ch <- seqTest{seq: seq, t: t}
		seq++
		return true
	})
	e.genNS.Add(int64(time.Since(t0)))
	close(ch)
	wg.Wait()

	winners := claims.Winners()
	sort.Slice(winners, func(i, j int) bool { return winners[i].seq < winners[j].seq })
	return winners
}

// explore fans the per-program execution exploration out over the workers
// (work-stealing by index) and returns per-program findings aligned with
// the winners slice. Each worker holds one minimal.Checker, so the static
// evaluation contexts and scratch buffers are pooled per worker and
// amortized across every execution of every program the worker claims.
func (e *engine) explore(winners []progClaim) [][]foundEntry {
	results := make([][]foundEntry, len(winners))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < e.opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			checker := minimal.NewChecker(e.model)
			var adm *admit.Checker
			if e.admitOn {
				adm = admit.NewChecker(e.model)
			}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(winners) || e.stopped.Load() {
					return
				}
				results[i] = e.processProgram(checker, adm, winners[i].test)
			}
		}()
	}
	wg.Wait()
	return results
}

// merge folds per-program findings into the suites, in generation order,
// reproducing the sequential engine's first-wins add order exactly.
func (e *engine) merge(results [][]foundEntry) {
	for _, found := range results {
		for _, f := range found {
			for _, ai := range f.axioms {
				e.res.PerAxiom[e.axioms[ai].Name].add(f.entry)
			}
			e.res.Union.add(f.entry)
		}
	}
}

// processProgram explores the executions of t and applies the minimality
// criterion through the caller's pooled checker; each goroutine must pass
// its own. A non-nil adm filters reads-from assignments before their
// coherence orders are enumerated: a refuted assignment's extensions are
// counted as fast-decided instead of visited (the filter is sound, so
// every finding an unfiltered run makes survives). On cancellation
// mid-program the partial findings are discarded (counters keep what was
// actually checked).
func (e *engine) processProgram(c *minimal.Checker, adm *admit.Checker, t *litmus.Test) []foundEntry {
	c.Bind(t)
	var found []foundEntry
	var execs, fastExecs, minNS, dedupeNS int64
	completed := true
	t0 := time.Now()
	// sc orders are quantified inside the checker (they are auxiliary,
	// not part of the outcome), so enumeration here covers rf and co only.
	eopts := exec.EnumerateOptions{}
	if adm != nil {
		adm.Bind(t, c.Apps())
		perRF := int64(exec.ExtensionsPerRF(t, eopts))
		var rfPolls int64
		// The visit callback polls for cancellation too, but a heavily
		// filtered program may visit almost nothing, so poll at the rf
		// level as well.
		eopts.Stop = func() bool {
			rfPolls++
			if rfPolls&0x3F == 0x3F && e.stopped.Load() {
				completed = false
				return true
			}
			return false
		}
		eopts.RFFilter = func(rf []int) bool {
			if adm.Decide(rf) {
				return true
			}
			fastExecs += perRF
			return false
		}
	}
	exec.Enumerate(t, eopts, func(x *exec.Execution) bool {
		if execs&0xFF == 0xFF && e.stopped.Load() {
			completed = false
			return false
		}
		execs++
		m0 := time.Now()
		verdict := c.Check(x)
		minNS += int64(time.Since(m0))
		if len(verdict.ViolatedAxioms) == 0 {
			return true
		}
		var key string
		if e.seenForbidden != nil {
			d0 := time.Now()
			key = canon.Key(x)
			if e.seenForbidden.Claim(key) {
				e.forbidden.Add(1)
			}
			dedupeNS += int64(time.Since(d0))
		}
		mins := verdict.MinimalFor()
		if len(mins) == 0 {
			return true
		}
		d0 := time.Now()
		if key == "" {
			key = canon.Key(x)
		}
		if e.seenEntry.Claim(key) {
			e.entries.Add(1)
		}
		dedupeNS += int64(time.Since(d0))
		found = append(found, foundEntry{
			axioms: append([]int(nil), mins...),
			entry:  Entry{Test: t, Exec: x.Clone(), Key: key, Size: len(t.Events)},
		})
		return true
	})
	e.execNS.Add(int64(time.Since(t0)) - minNS - dedupeNS)
	e.minNS.Add(minNS)
	e.dedupeNS.Add(dedupeNS)
	e.executions.Add(execs)
	e.executionsFast.Add(fastExecs)
	if !completed {
		return nil
	}
	return found
}
