package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"memsynth/internal/admit"
	"memsynth/internal/canon"
	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/minimal"
	"memsynth/internal/synth"
)

// replayCounts are the work counters the replay records at the same call
// boundaries as its spans.
type replayCounts struct {
	programsRaw, programs      int64
	executions, executionsFast int64
	checks, minimal            int64
	decides, refuted           int64
	keyCalls                   int64
	unionKeys                  []string
	perAxiom                   map[string]int
}

// replay re-runs one synthesis on the calling goroutine, calling each
// layer's exported function in the engine's order and timing every call
// with a span: per generated program canon.ProgramKey, then for each new
// symmetry class minimal.Checker.Bind, admit.Checker.Bind, exec.Enumerate
// (RFFilter -> admit.Checker.Decide), minimal.Checker.Check and canon.Key;
// the suites are then assembled with synth.NewSuite. Work between spans
// (the replay's own bookkeeping) counts toward the enclosing span.
func replay(tr *tracer, m memmodel.Model, opts synth.Options) replayCounts {
	var rc replayCounts
	axioms := m.Axioms()
	checker := minimal.NewChecker(m)
	var adm *admit.Checker
	if opts.Admit != "off" {
		s := tr.begin(layerAdmitBind)
		adm = admit.NewChecker(m) // nil when the model has no algorithm
		tr.end(s)
	}

	type found struct {
		axioms []int
		entry  synth.Entry
	}
	var all []found
	norm := opts.Normalize()
	for n := norm.MinEvents; n <= norm.MaxEvents; n++ {
		sized := opts
		sized.MinEvents, sized.MaxEvents = n, n
		seen := make(map[string]bool)
		gen := tr.begin(layerGen)
		err := synth.EnumeratePrograms(m.Vocab(), sized, func(t *litmus.Test) bool {
			rc.programsRaw++
			s := tr.begin(layerProgramKey)
			pk := canon.ProgramKey(t)
			tr.end(s)
			if seen[pk] {
				return true
			}
			seen[pk] = true
			rc.programs++

			s = tr.begin(layerMinBind)
			checker.Bind(t)
			tr.end(s)
			eopts := exec.EnumerateOptions{}
			if adm != nil {
				s = tr.begin(layerAdmitBind)
				adm.Bind(t, checker.Apps())
				tr.end(s)
				perRF := int64(exec.ExtensionsPerRF(t, eopts))
				eopts.RFFilter = func(rf []int) bool {
					s := tr.begin(layerDecide)
					ok := adm.Decide(rf)
					tr.end(s)
					rc.decides++
					if !ok {
						rc.refuted++
						rc.executionsFast += perRF
					}
					return ok
				}
			}
			s = tr.begin(layerEnumerate)
			exec.Enumerate(t, eopts, func(x *exec.Execution) bool {
				rc.executions++
				s := tr.begin(layerCheck)
				verdict := checker.Check(x)
				tr.end(s)
				if len(verdict.ViolatedAxioms) == 0 {
					return true
				}
				mins := verdict.MinimalFor()
				if len(mins) == 0 {
					return true
				}
				rc.minimal++
				rc.keyCalls++
				s = tr.begin(layerKey)
				key := canon.Key(x)
				tr.end(s)
				all = append(all, found{
					axioms: slices.Clone(mins),
					entry:  synth.Entry{Test: t, Exec: x.Clone(), Key: key, Size: len(t.Events)},
				})
				return true
			})
			tr.end(s)
			return true
		})
		tr.end(gen)
		if err != nil {
			panic(fmt.Sprintf("replay: options validated by the untraced run: %v", err))
		}
	}

	s := tr.begin(layerMerge)
	entries := make([]synth.Entry, len(all))
	perAxiom := make([][]synth.Entry, len(axioms))
	for i, f := range all {
		entries[i] = f.entry
		for _, ai := range f.axioms {
			perAxiom[ai] = append(perAxiom[ai], f.entry)
		}
	}
	union := synth.NewSuite(m.Name(), "union", entries)
	sortSuite(union)
	rc.unionKeys = suiteKeys(union)
	rc.perAxiom = make(map[string]int, len(axioms))
	for i, a := range axioms {
		suite := synth.NewSuite(m.Name(), a.Name, perAxiom[i])
		sortSuite(suite)
		rc.perAxiom[a.Name] = len(suite.Entries)
	}
	tr.end(s)
	return rc
}

// sortSuite puts entries in the engine's suite order: size, then key.
func sortSuite(s *synth.Suite) {
	sort.Slice(s.Entries, func(i, j int) bool {
		a, b := s.Entries[i], s.Entries[j]
		if a.Size != b.Size {
			return a.Size < b.Size
		}
		return a.Key < b.Key
	})
}

// replayMatches reports how a replay differs from the untraced run it
// shadows; nil means it reproduced the engine exactly.
func replayMatches(rc replayCounts, res *synth.Result) error {
	if !slices.Equal(rc.unionKeys, suiteKeys(res.Union)) {
		return fmt.Errorf("replay union keys differ from the engine's (%d vs %d entries)",
			len(rc.unionKeys), len(res.Union.Entries))
	}
	want := suiteSizes(res)
	for name, n := range rc.perAxiom {
		if want[name] != n {
			return fmt.Errorf("replay axiom %s has %d entries, engine %d", name, n, want[name])
		}
	}
	st := res.Stats
	if rc.programsRaw != int64(st.ProgramsRaw) || rc.programs != int64(st.Programs) ||
		rc.executions != int64(st.Executions) || rc.executionsFast != int64(st.ExecutionsFast) {
		return fmt.Errorf("replay counted raw=%d programs=%d executions=%d fast=%d, engine %d/%d/%d/%d",
			rc.programsRaw, rc.programs, rc.executions, rc.executionsFast,
			st.ProgramsRaw, st.Programs, st.Executions, st.ExecutionsFast)
	}
	return nil
}

// engineLayers accumulates the engine-layer figures of one pass, summed
// over its requests.
type engineLayers struct {
	self      [numLayers]int64
	counts    replayCounts // work counters (unionKeys and perAxiom unused)
	wall      time.Duration
	cpu       time.Duration
	tracedCPU time.Duration
	allocB    uint64
	gcCycles  uint32
	stages    synth.StageTimes
}

// traceRequest runs one request untraced (measuring it) and then replays
// it traced, adding both to acc. It returns the untraced result and the
// replay's spans.
func traceRequest(ctx context.Context, r engineRequest, acc *engineLayers) (*synth.Result, *tracer, error) {
	m, opts, err := r.resolve()
	if err != nil {
		return nil, nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0, c0 := time.Now(), cpuTime()
	res, err := r.synthesize(ctx)
	wall, cpu := time.Since(t0), cpuTime()-c0
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, nil, err
	}

	tr := newTracer()
	c0 = cpuTime()
	rc := replay(tr, m, opts)
	acc.tracedCPU += cpuTime() - c0
	if err := replayMatches(rc, res); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", r, err)
	}

	self := tr.selfTimes()
	for i := range self {
		acc.self[i] += self[i]
	}
	a := &acc.counts
	a.programsRaw += rc.programsRaw
	a.programs += rc.programs
	a.executions += rc.executions
	a.executionsFast += rc.executionsFast
	a.minimal += rc.minimal
	a.decides += rc.decides
	a.refuted += rc.refuted
	a.keyCalls += rc.keyCalls
	acc.wall += wall
	acc.cpu += cpu
	acc.allocB += ms1.TotalAlloc - ms0.TotalAlloc
	acc.gcCycles += ms1.NumGC - ms0.NumGC
	st := res.Stats.Stages
	acc.stages.Generation += st.Generation
	acc.stages.Dedupe += st.Dedupe
	acc.stages.Execution += st.Execution
	acc.stages.Minimality += st.Minimality
	return res, tr, nil
}

// metrics converts one pass's sums into per-layer metric values.
func (acc *engineLayers) metrics() map[string]float64 {
	c := acc.counts
	self := func(l layer) float64 { return float64(acc.self[l]) }
	secs := acc.wall.Seconds()
	return map[string]float64{
		"synth.gen.ns":                     self(layerGen),
		"synth.gen.programs_raw":           float64(c.programsRaw),
		"canon.program_key.ns":             self(layerProgramKey),
		"canon.program_key.calls":          float64(c.programsRaw),
		"canon.dedupe.distinct_ratio":      ratio(float64(c.programs), float64(c.programsRaw)),
		"canon.key.ns":                     self(layerKey),
		"canon.key.calls":                  float64(c.keyCalls),
		"minimal.bind.ns":                  self(layerMinBind),
		"minimal.check.ns":                 self(layerCheck),
		"minimal.check.calls":              float64(c.executions),
		"minimal.check.minimal_ratio":      ratio(float64(c.minimal), float64(c.executions)),
		"admit.ns":                         self(layerAdmitBind) + self(layerDecide),
		"admit.bind.ns":                    self(layerAdmitBind),
		"admit.decide.ns":                  self(layerDecide),
		"admit.decide.calls":               float64(c.decides),
		"admit.decide.refuted_ratio":       ratio(float64(c.refuted), float64(c.decides)),
		"exec.enumerate.ns":                self(layerEnumerate),
		"exec.enumerate.executions":        float64(c.executions),
		"exec.enumerate.executions_fast":   float64(c.executionsFast),
		"exec.candidates_total_per_s":      ratio(float64(c.executions+c.executionsFast), secs),
		"exec.candidates_enumerated_per_s": ratio(float64(c.executions), secs),
		"synth.merge.ns":                   self(layerMerge),
		"synth.alloc_mb":                   float64(acc.allocB) / 1e6,
		"synth.gc_cycles":                  float64(acc.gcCycles),
		"synth.stage.generation_ns":        float64(acc.stages.Generation),
		"synth.stage.dedupe_ns":            float64(acc.stages.Dedupe),
		"synth.stage.execution_ns":         float64(acc.stages.Execution),
		"synth.stage.minimality_ns":        float64(acc.stages.Minimality),
		"trace.overhead_ratio":             ratio(float64(acc.tracedCPU), float64(acc.cpu)),
	}
}
