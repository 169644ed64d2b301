package synth

import (
	"context"
	"fmt"
	"sort"
	"time"

	"memsynth/internal/memmodel"
)

// This file is the engine's shard-bounded entry point, the primitive the
// cluster subsystem (internal/cluster) distributes over. A shard is an
// (index, stride) partition of the *deduped program stream*: every shard
// regenerates and dedupes the full skeleton stream (generation is cheap
// and deterministic — the exponential cost lives in the explore phase)
// so all shards agree on the identical per-size winner list, then each
// shard explores only the winners whose per-size index is congruent to
// Index modulo Stride. The union of the shards' explored programs is
// therefore exactly the single-node winner set, partitioned, and
// MergeShards replays the per-entry suite adds in the engine's global
// (size, winner, within-program) order — reproducing the single-node
// first-wins merge byte for byte, for any stride.

// ShardSpec selects one (index, stride) partition of the deduped program
// stream. Stride 1 / index 0 is the whole stream (equivalent to a plain
// SynthesizeContext run on the enumeration engine).
type ShardSpec struct {
	Index  int `json:"index"`
	Stride int `json:"stride"`
}

// Validate rejects malformed shard coordinates.
func (s ShardSpec) Validate() error {
	if s.Stride < 1 {
		return fmt.Errorf("synth: ShardSpec.Stride must be >= 1, got %d", s.Stride)
	}
	if s.Index < 0 || s.Index >= s.Stride {
		return fmt.Errorf("synth: ShardSpec.Index must be in [0,%d), got %d", s.Stride, s.Index)
	}
	return nil
}

// ShardEntry is one minimal-test finding of a shard run, tagged with its
// merge position: Size is the instruction-count phase, Winner the
// per-size index of the program in the deduped generation order, Within
// the finding's index among that program's findings. Sorting all shards'
// entries by (Size, Winner, Within) recovers the exact order the
// single-node engine would have fed them to the suites.
type ShardEntry struct {
	Size   int
	Winner int
	Within int
	// Axioms are the names of the axioms the entry is minimal for, in the
	// engine's axiom order.
	Axioms []string
	Entry  Entry
}

// ShardResult is the outcome of one SynthesizeShard run.
type ShardResult struct {
	Model       string
	ModelSource string
	ModelDigest string
	// Options are the normalized request options (identical across the
	// shards of one request).
	Options Options
	Shard   ShardSpec
	Entries []ShardEntry
	// Stats carries the shard's own explore counters (Executions,
	// Entries, ForbiddenOutcomes, stage times) but full-stream generation
	// counters (ProgramsRaw, Programs) — every shard regenerates the
	// whole stream, so those are identical across shards.
	Stats Stats
}

// SynthesizeShard runs the synthesis pipeline for exactly one shard of
// the deduped program stream: generation and dedupe run in full (their
// output is deterministic, so every shard computes the identical winner
// list), and only winners with per-size index ≡ shard.Index (mod
// shard.Stride) are explored. Cancellation returns
// a partial result with Stats.Interrupted set, which MergeShards
// rejects — an interrupted shard must be retried, never merged.
func SynthesizeShard(ctx context.Context, m memmodel.Model, opts Options, shard ShardSpec) (*ShardResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := shard.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	e := newEngine(m, opts)
	return e.runShard(ctx, shard), nil
}

// runShard is engine.run with the explore phase restricted to the shard's
// winner partition and per-entry merge positions recorded instead of
// folding findings into suites.
func (e *engine) runShard(ctx context.Context, shard ShardSpec) *ShardResult {
	e.start = time.Now()

	if ctx.Err() != nil {
		// Already-cancelled callers must see a deterministically
		// interrupted result (the async watcher below may lose the race
		// on a fast run).
		e.stopped.Store(true)
	}
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

	out := &ShardResult{
		Model:       e.model.Name(),
		ModelSource: e.res.ModelSource,
		ModelDigest: e.res.ModelDigest,
		Options:     e.opts.Normalize(),
		Shard:       shard,
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
		// Select this shard's partition, remembering each program's
		// original winner index (the merge coordinate).
		var subset []progClaim
		var origIdx []int
		for i := shard.Index; i < len(winners); i += shard.Stride {
			subset = append(subset, winners[i])
			origIdx = append(origIdx, i)
		}
		results := e.explore(subset)
		if e.stopped.Load() {
			break
		}
		for si, found := range results {
			for wi, f := range found {
				names := make([]string, len(f.axioms))
				for k, ai := range f.axioms {
					names[k] = e.axioms[ai].Name
				}
				out.Entries = append(out.Entries, ShardEntry{
					Size:   n,
					Winner: origIdx[si],
					Within: wi,
					Axioms: names,
					Entry:  f.entry,
				})
			}
		}
	}

	if e.seenForbidden != nil {
		out.Stats.ForbiddenOutcomes = e.seenForbidden.Len()
	}
	out.Stats.ProgramsRaw = int(e.programsRaw.Load())
	out.Stats.Programs = int(e.programs.Load())
	out.Stats.Executions = int(e.executions.Load())
	out.Stats.ExecutionsFast = int(e.executionsFast.Load())
	out.Stats.Entries = int(e.entries.Load())
	out.Stats.Stages = StageTimes{
		Generation: time.Duration(e.genNS.Load()),
		Dedupe:     time.Duration(e.dedupeNS.Load()),
		Execution:  time.Duration(e.execNS.Load()),
		Minimality: time.Duration(e.minNS.Load()),
	}
	out.Stats.Interrupted = e.stopped.Load()
	out.Stats.Elapsed = time.Since(e.start)
	e.prog.emit(PhaseDone, out.Stats.Interrupted)
	return out
}

// sameOutputOptions reports whether two normalized Options describe the
// same synthesis output (Options holds func fields, so == is unavailable).
func sameOutputOptions(a, b Options) bool {
	return a.MinEvents == b.MinEvents &&
		a.MaxEvents == b.MaxEvents &&
		a.MaxThreads == b.MaxThreads &&
		a.MaxAddrs == b.MaxAddrs &&
		a.MaxDeps == b.MaxDeps &&
		a.MaxRMWs == b.MaxRMWs &&
		a.CountForbidden == b.CountForbidden &&
		a.KeepTrivialFences == b.KeepTrivialFences &&
		a.KeepIsolatedAddrs == b.KeepIsolatedAddrs
}

// MergeShards folds a complete set of shard results — exactly one per
// index in [0, stride) — into a single Result that is byte-identical
// (suite texts, entry order, store digest) to a single-node run of the
// same (model, options). The merge replays every entry's suite adds in
// the global (Size, Winner, Within) order, which is precisely the order
// the single-node engine performs them in, so the existing first-wins
// min-seq representative rule yields the same representatives.
//
// Stats are aggregated: generation counters are taken from shard 0
// (every shard regenerates the full stream), worker-stage counters and
// times are summed, Elapsed is the max over shards, and Entries is
// recomputed from the merged union suite.
func MergeShards(m memmodel.Model, opts Options, shards []*ShardResult) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if len(shards) == 0 {
		return nil, fmt.Errorf("synth: MergeShards with no shards")
	}
	stride := shards[0].Shard.Stride
	if len(shards) != stride {
		return nil, fmt.Errorf("synth: MergeShards got %d shards for stride %d", len(shards), stride)
	}
	wantOpts := opts.Normalize()
	seen := make([]bool, stride)
	for _, sr := range shards {
		if sr == nil {
			return nil, fmt.Errorf("synth: MergeShards got a nil shard result")
		}
		if sr.Model != m.Name() {
			return nil, fmt.Errorf("synth: MergeShards: shard is for model %q, want %q", sr.Model, m.Name())
		}
		if sr.Shard.Stride != stride {
			return nil, fmt.Errorf("synth: MergeShards: mixed strides %d and %d", stride, sr.Shard.Stride)
		}
		if sr.Shard.Index < 0 || sr.Shard.Index >= stride || seen[sr.Shard.Index] {
			return nil, fmt.Errorf("synth: MergeShards: bad or duplicate shard index %d (stride %d)", sr.Shard.Index, stride)
		}
		if sr.Stats.Interrupted {
			return nil, fmt.Errorf("synth: MergeShards: shard %d/%d is interrupted (retry it, do not merge)", sr.Shard.Index, stride)
		}
		if !sameOutputOptions(sr.Options, wantOpts) {
			return nil, fmt.Errorf("synth: MergeShards: shard %d options differ from the request", sr.Shard.Index)
		}
		seen[sr.Shard.Index] = true
	}

	var all []ShardEntry
	for _, sr := range shards {
		all = append(all, sr.Entries...)
	}
	// (Size, Winner) pairs are unique across shards — the winner index
	// space is partitioned — so this order is total and deterministic.
	sort.Slice(all, func(i, j int) bool {
		if all[i].Size != all[j].Size {
			return all[i].Size < all[j].Size
		}
		if all[i].Winner != all[j].Winner {
			return all[i].Winner < all[j].Winner
		}
		return all[i].Within < all[j].Within
	})

	res := &Result{
		Model:    m.Name(),
		Options:  opts,
		PerAxiom: make(map[string]*Suite),
		Union:    newSuite(m.Name(), "union"),
	}
	res.ModelSource, res.ModelDigest = memmodel.SourceOf(m)
	for _, a := range m.Axioms() {
		res.PerAxiom[a.Name] = newSuite(m.Name(), a.Name)
	}
	for _, se := range all {
		for _, name := range se.Axioms {
			s, ok := res.PerAxiom[name]
			if !ok {
				return nil, fmt.Errorf("synth: MergeShards: shard entry names unknown axiom %q", name)
			}
			s.add(se.Entry)
		}
		res.Union.add(se.Entry)
	}
	res.Union.sortEntries()
	for _, s := range res.PerAxiom {
		s.sortEntries()
	}

	for _, sr := range shards {
		if sr.Shard.Index == 0 {
			res.Stats.ProgramsRaw = sr.Stats.ProgramsRaw
			res.Stats.Programs = sr.Stats.Programs
			res.Stats.Stages.Generation = sr.Stats.Stages.Generation
		}
		res.Stats.Executions += sr.Stats.Executions
		res.Stats.ExecutionsFast += sr.Stats.ExecutionsFast
		res.Stats.ForbiddenOutcomes += sr.Stats.ForbiddenOutcomes
		res.Stats.Stages.Dedupe += sr.Stats.Stages.Dedupe
		res.Stats.Stages.Execution += sr.Stats.Stages.Execution
		res.Stats.Stages.Minimality += sr.Stats.Stages.Minimality
		if sr.Stats.Elapsed > res.Stats.Elapsed {
			res.Stats.Elapsed = sr.Stats.Elapsed
		}
	}
	res.Stats.Entries = len(res.Union.Entries)
	return res, nil
}
