package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"memsynth/internal/exec"
	"memsynth/internal/litmus"
	"memsynth/internal/memmodel"
	"memsynth/internal/synth"
)

// formatVersion is the on-disk manifest schema version. Bump on
// incompatible layout changes; Get rejects unknown versions so a newer
// daemon never misreads an older store (operators evict or recompute).
const formatVersion = 1

// RequestOptions is the serializable projection of synth.Options: exactly
// the knobs that affect synthesis output (engine tuning — workers,
// progress — is deliberately absent). It doubles as the JSON request shape
// of the memsynthd synthesize endpoint.
type RequestOptions struct {
	MinEvents         int  `json:"min_events,omitempty"`
	MaxEvents         int  `json:"max_events"`
	MaxThreads        int  `json:"max_threads,omitempty"`
	MaxAddrs          int  `json:"max_addrs,omitempty"`
	MaxDeps           int  `json:"max_deps,omitempty"`
	MaxRMWs           int  `json:"max_rmws,omitempty"`
	CountForbidden    bool `json:"count_forbidden,omitempty"`
	KeepTrivialFences bool `json:"keep_trivial_fences,omitempty"`
	KeepIsolatedAddrs bool `json:"keep_isolated_addrs,omitempty"`
}

// SynthOptions converts back to engine options.
func (ro RequestOptions) SynthOptions() synth.Options {
	return synth.Options{
		MinEvents:         ro.MinEvents,
		MaxEvents:         ro.MaxEvents,
		MaxThreads:        ro.MaxThreads,
		MaxAddrs:          ro.MaxAddrs,
		MaxDeps:           ro.MaxDeps,
		MaxRMWs:           ro.MaxRMWs,
		CountForbidden:    ro.CountForbidden,
		KeepTrivialFences: ro.KeepTrivialFences,
		KeepIsolatedAddrs: ro.KeepIsolatedAddrs,
	}
}

// FromSynthOptions projects normalized engine options onto the
// serializable shape.
func FromSynthOptions(o synth.Options) RequestOptions {
	o = o.Normalize()
	return RequestOptions{
		MinEvents:         o.MinEvents,
		MaxEvents:         o.MaxEvents,
		MaxThreads:        o.MaxThreads,
		MaxAddrs:          o.MaxAddrs,
		MaxDeps:           o.MaxDeps,
		MaxRMWs:           o.MaxRMWs,
		CountForbidden:    o.CountForbidden,
		KeepTrivialFences: o.KeepTrivialFences,
		KeepIsolatedAddrs: o.KeepIsolatedAddrs,
	}
}

// Digest returns the content address of a synthesis request: a SHA-256
// over the canonical (model, normalized bounds, engine version) string.
// Engine tuning that cannot change output (worker count, progress
// streaming) is excluded, so a CLI run and a daemon run of the same
// request share one cache entry; synth.EngineVersion is included so a
// behavior-changing engine upgrade can never serve stale suites.
//
// modelDigest is the hash of a compiled model's normalized definition
// ("" for built-ins). It is folded into the address so a user-defined
// model is keyed by what it *means*, not what it is called: two different
// definitions named "mymodel" get distinct suites, and re-registering a
// byte-equivalent definition hits the existing cache entry. Built-in
// digests are unchanged by this extension (the line is only appended when
// modelDigest is non-empty), so pre-existing stores stay valid.
func Digest(model, modelDigest string, opts synth.Options) string {
	o := opts.Normalize()
	h := sha256.New()
	fmt.Fprintf(h,
		"memsynth-suite-v%d\nengine=%s\nmodel=%s\nmin_events=%d\nmax_events=%d\nmax_threads=%d\nmax_addrs=%d\nmax_deps=%d\nmax_rmws=%d\ncount_forbidden=%t\nkeep_trivial_fences=%t\nkeep_isolated_addrs=%t\n",
		formatVersion, synth.EngineVersion, model,
		o.MinEvents, o.MaxEvents, o.MaxThreads, o.MaxAddrs, o.MaxDeps, o.MaxRMWs,
		o.CountForbidden, o.KeepTrivialFences, o.KeepIsolatedAddrs)
	if modelDigest != "" {
		fmt.Fprintf(h, "model_src=%s\n", modelDigest)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// DigestModel is Digest keyed directly by a model value, deriving the
// definition digest via memmodel.SourceOf.
func DigestModel(m memmodel.Model, opts synth.Options) string {
	_, md := memmodel.SourceOf(m)
	return Digest(m.Name(), md, opts)
}

// StatsManifest is the persisted projection of synth.Stats (durations as
// nanoseconds for JSON stability).
type StatsManifest struct {
	ProgramsRaw       int   `json:"programs_raw"`
	Programs          int   `json:"programs"`
	Executions        int   `json:"executions"`
	ExecutionsFast    int   `json:"executions_fast,omitempty"`
	ForbiddenOutcomes int   `json:"forbidden_outcomes,omitempty"`
	ElapsedNS         int64 `json:"elapsed_ns"`
	GenerationNS      int64 `json:"generation_ns"`
	DedupeNS          int64 `json:"dedupe_ns"`
	ExecutionNS       int64 `json:"execution_ns"`
	MinimalityNS      int64 `json:"minimality_ns"`
}

func statsManifest(st synth.Stats) StatsManifest {
	return StatsManifest{
		ProgramsRaw:       st.ProgramsRaw,
		Programs:          st.Programs,
		Executions:        st.Executions,
		ExecutionsFast:    st.ExecutionsFast,
		ForbiddenOutcomes: st.ForbiddenOutcomes,
		ElapsedNS:         int64(st.Elapsed),
		GenerationNS:      int64(st.Stages.Generation),
		DedupeNS:          int64(st.Stages.Dedupe),
		ExecutionNS:       int64(st.Stages.Execution),
		MinimalityNS:      int64(st.Stages.Minimality),
	}
}

func (sm StatsManifest) synthStats() synth.Stats {
	return synth.Stats{
		ProgramsRaw:       sm.ProgramsRaw,
		Programs:          sm.Programs,
		Executions:        sm.Executions,
		ExecutionsFast:    sm.ExecutionsFast,
		ForbiddenOutcomes: sm.ForbiddenOutcomes,
		Elapsed:           time.Duration(sm.ElapsedNS),
		Stages: synth.StageTimes{
			Generation: time.Duration(sm.GenerationNS),
			Dedupe:     time.Duration(sm.DedupeNS),
			Execution:  time.Duration(sm.ExecutionNS),
			Minimality: time.Duration(sm.MinimalityNS),
		},
	}
}

// EntryManifest carries the machine-readable part of one suite entry: the
// symmetry-class key and the witness execution's relations. Together with
// the parsed test from the suite's litmus text it rebuilds the full
// synth.Entry (including a working *exec.Execution).
type EntryManifest struct {
	Key  string  `json:"key"`
	Size int     `json:"size"`
	RF   []int   `json:"rf"`
	CO   [][]int `json:"co"`
	SC   []int   `json:"sc,omitempty"`
}

// SuiteManifest indexes one persisted suite (the union or one axiom).
type SuiteManifest struct {
	// File is the suite's litmus text file, relative to the entry dir.
	File string `json:"file"`
	// Tests is the entry count (len(Entries), denormalized for listings).
	Tests   int             `json:"tests"`
	Entries []EntryManifest `json:"entries"`
}

// Manifest is the JSON sidecar of one stored suite set.
type Manifest struct {
	FormatVersion int                      `json:"format_version"`
	Digest        string                   `json:"digest"`
	EngineVersion string                   `json:"engine_version"`
	Model         string                   `json:"model"`
	ModelSource   string                   `json:"model_source,omitempty"`
	ModelDigest   string                   `json:"model_digest,omitempty"`
	Options       RequestOptions           `json:"options"`
	CreatedAt     time.Time                `json:"created_at"`
	Stats         StatsManifest            `json:"stats"`
	Suites        map[string]SuiteManifest `json:"suites"`
}

// UnionSuite is the key of the per-model union suite in Manifest.Suites
// and StoredSuite.Texts (matching synth's own "union" axiom name).
const UnionSuite = "union"

// StoredSuite is one store entry: the manifest plus the litmus text of
// every suite. Texts are the canonical byte-identical artifacts (what the
// suites API serves); the manifest carries everything needed to rebuild a
// *synth.Result.
type StoredSuite struct {
	Manifest *Manifest
	// Texts maps suite name ("union" or an axiom name) to litmus text.
	Texts map[string]string
}

// Text returns the litmus text of the named suite.
func (ss *StoredSuite) Text(name string) (string, bool) {
	t, ok := ss.Texts[name]
	return t, ok
}

// SuiteNames returns the stored suite names, "union" first then axioms
// sorted.
func (ss *StoredSuite) SuiteNames() []string {
	var names []string
	for name := range ss.Texts {
		if name != UnionSuite {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return append([]string{UnionSuite}, names...)
}

// suiteFileName maps a suite name to its on-disk file name.
func suiteFileName(name string) string {
	if name == UnionSuite {
		return "union.litmus"
	}
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			return r
		}
		return '_'
	}, name)
	return "axiom-" + clean + ".litmus"
}

// Encode serializes a completed synthesis result into its stored form.
// Results of interrupted runs are rejected: a partial suite under a
// content address would silently shadow the complete one forever.
func Encode(res *synth.Result) (*StoredSuite, error) {
	if res.Stats.Interrupted {
		return nil, ErrPartialResult
	}
	m := &Manifest{
		FormatVersion: formatVersion,
		Digest:        Digest(res.Model, res.ModelDigest, res.Options),
		EngineVersion: synth.EngineVersion,
		Model:         res.Model,
		ModelSource:   res.ModelSource,
		ModelDigest:   res.ModelDigest,
		Options:       FromSynthOptions(res.Options),
		CreatedAt:     time.Now().UTC().Truncate(time.Second),
		Stats:         statsManifest(res.Stats),
		Suites:        make(map[string]SuiteManifest),
	}
	texts := make(map[string]string)
	encodeSuite := func(name string, s *synth.Suite) {
		sm := SuiteManifest{File: suiteFileName(name), Tests: len(s.Entries)}
		specs := make([]*litmus.Spec, len(s.Entries))
		for i, e := range s.Entries {
			specs[i] = &litmus.Spec{Test: e.Test, Forbid: e.Exec.OutcomeConds()}
			em := EntryManifest{
				Key:  e.Key,
				Size: e.Size,
				RF:   e.Exec.RF,
				CO:   e.Exec.CO,
				SC:   e.Exec.SC,
			}
			sm.Entries = append(sm.Entries, em)
		}
		m.Suites[name] = sm
		texts[name] = litmus.FormatSuite(specs)
	}
	encodeSuite(UnionSuite, res.Union)
	for name, s := range res.PerAxiom {
		encodeSuite(name, s)
	}
	return &StoredSuite{Manifest: m, Texts: texts}, nil
}

// Result rehydrates the stored suites into a full *synth.Result: tests are
// reparsed from the litmus texts and each witness execution is rebuilt
// from its persisted relations, so every consumer of a live result
// (printing, rendering, the fault-detection harness) works unchanged on a
// cache hit. Stats are the original run's.
func (ss *StoredSuite) Result() (*synth.Result, error) {
	m := ss.Manifest
	res := &synth.Result{
		Model:       m.Model,
		Options:     m.Options.SynthOptions().Normalize(),
		ModelSource: m.ModelSource,
		ModelDigest: m.ModelDigest,
		PerAxiom:    make(map[string]*synth.Suite),
		Stats:       m.Stats.synthStats(),
	}
	for name, sm := range m.Suites {
		text, ok := ss.Texts[name]
		if !ok {
			return nil, fmt.Errorf("store: digest %s: suite %q text missing", m.Digest, name)
		}
		specs, err := litmus.ParseSuite(strings.NewReader(text))
		if err != nil {
			return nil, fmt.Errorf("store: digest %s: suite %q: %w", m.Digest, name, err)
		}
		if len(specs) != len(sm.Entries) {
			return nil, fmt.Errorf("store: digest %s: suite %q has %d tests but %d manifest entries",
				m.Digest, name, len(specs), len(sm.Entries))
		}
		entries := make([]synth.Entry, len(specs))
		for i, spec := range specs {
			em := sm.Entries[i]
			entries[i] = synth.Entry{
				Test: spec.Test,
				Exec: &exec.Execution{Test: spec.Test, RF: em.RF, CO: em.CO, SC: em.SC},
				Key:  em.Key,
				Size: em.Size,
			}
		}
		s := synth.NewSuite(m.Model, name, entries)
		if name == UnionSuite {
			res.Union = s
		} else {
			res.PerAxiom[name] = s
		}
	}
	if res.Union == nil {
		return nil, fmt.Errorf("store: digest %s: union suite missing", m.Digest)
	}
	return res, nil
}
