package memsynth_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"memsynth"
	"memsynth/internal/store"
	"memsynth/internal/synth"
)

// updateGolden rewrites the golden corpus from the current engine. It only
// replaces files recorded under a different EngineVersion (or missing
// ones): changing engine output without bumping synth.EngineVersion is
// exactly what the corpus exists to catch.
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden from the current engine (only after an EngineVersion bump)")

// goldenRecord is one pinned synthesis run.
type goldenRecord struct {
	Model         string `json:"model"`
	Source        string `json:"source"` // "builtin" or the cat file it was compiled from
	Bound         int    `json:"bound"`
	EngineVersion string `json:"engine_version"`
	// Digest is the store digest of the run (content address of the
	// request, so it also pins the digest scheme).
	Digest   string         `json:"digest"`
	Union    int            `json:"union"`
	PerAxiom map[string]int `json:"per_axiom"`
	// UnionLitmusSHA256 hashes the union suite's stored litmus rendering,
	// which pins every test, witness outcome, and the entry order.
	UnionLitmusSHA256 string `json:"union_litmus_sha256"`
}

type goldenCase struct {
	file   string // corpus file name under testdata/golden
	source string // "builtin" or a cat file path
	model  string
	bound  int
}

// goldenCases covers every builtin model at bound 4, sc and tso at bound
// 6, and the example cat definitions at bound 4.
func goldenCases(t *testing.T) []goldenCase {
	var cases []goldenCase
	for _, m := range memsynth.Models() {
		cases = append(cases, goldenCase{fmt.Sprintf("%s-4.json", m.Name()), "builtin", m.Name(), 4})
	}
	for _, name := range []string{"sc", "tso"} {
		cases = append(cases, goldenCase{fmt.Sprintf("%s-6.json", name), "builtin", name, 6})
	}
	files, err := filepath.Glob(filepath.Join("examples", "cat", "*.cat"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example cat models found: %v", err)
	}
	for _, f := range files {
		base := filepath.Base(f)
		name := base[:len(base)-len(filepath.Ext(base))]
		cases = append(cases, goldenCase{fmt.Sprintf("cat-%s-4.json", name), filepath.ToSlash(f), name, 4})
	}
	return cases
}

func runGolden(t *testing.T, c goldenCase) goldenRecord {
	t.Helper()
	var m memsynth.Model
	var err error
	if c.source == "builtin" {
		m, err = memsynth.ModelByName(c.model)
	} else {
		var src []byte
		if src, err = os.ReadFile(c.source); err == nil {
			m, err = memsynth.CompileModel(string(src))
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	res, err := memsynth.SynthesizeContext(context.Background(), m, memsynth.Options{MaxEvents: c.bound})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := store.Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(ss.Texts[store.UnionSuite]))
	rec := goldenRecord{
		Model:             res.Model,
		Source:            c.source,
		Bound:             c.bound,
		EngineVersion:     synth.EngineVersion,
		Digest:            ss.Manifest.Digest,
		Union:             len(res.Union.Entries),
		PerAxiom:          make(map[string]int),
		UnionLitmusSHA256: hex.EncodeToString(sum[:]),
	}
	for name, s := range res.PerAxiom {
		rec.PerAxiom[name] = len(s.Entries)
	}
	return rec
}

// TestGolden holds the engine to its own past output: every case must
// reproduce the recorded counts, store digest, and union rendering hash.
// A corpus recorded under another EngineVersion fails until it is
// regenerated with -update-golden, so output changes and version bumps
// travel together.
func TestGolden(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	for _, c := range goldenCases(t) {
		c := c
		t.Run(c.file, func(t *testing.T) {
			if testing.Short() && c.bound > 4 {
				t.Skip("bound-6 golden cases skipped in -short mode")
			}
			path := filepath.Join(dir, c.file)
			got := runGolden(t, c)
			if want, ok := paperSeries[c.model][c.bound]; ok && c.source == "builtin" {
				checkSeries(t, got, want)
			}
			data, err := os.ReadFile(path)
			var want goldenRecord
			if err == nil {
				err = json.Unmarshal(data, &want)
			}
			if *updateGolden && (os.IsNotExist(err) || (err == nil && want.EngineVersion != synth.EngineVersion)) {
				out, merr := json.MarshalIndent(got, "", "  ")
				if merr != nil {
					t.Fatal(merr)
				}
				if werr := os.WriteFile(path, append(out, '\n'), 0o644); werr != nil {
					t.Fatal(werr)
				}
				return
			}
			if err != nil {
				t.Fatalf("%s: %v (run with -update-golden after an EngineVersion bump to record it)", path, err)
			}
			if want.EngineVersion != synth.EngineVersion {
				t.Fatalf("%s was recorded at engine version %q, engine is %q: regenerate with -update-golden",
					path, want.EngineVersion, synth.EngineVersion)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("engine output changed without an EngineVersion bump:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

// seriesPoint is one bound of a paper figure's per-axiom series.
type seriesPoint struct {
	union    int
	perAxiom map[string]int
}

// paperSeries pins paper-facing suite sizes reported in EXPERIMENTS.md
// independently of the corpus files: the TSO union at bound 6 (causality
// 41, rmw_atomicity 4, sc_per_loc 10) and the Fig. 16 (Power) and Fig. 20
// (SCC) per-axiom series at bounds 2-4. Points with a corpus case are
// checked inside TestGolden on its run, bounds 2 and 3 by TestPaperSeries.
var paperSeries = map[string]map[int]seriesPoint{
	"tso": {
		6: {49, map[string]int{"causality": 41, "rmw_atomicity": 4, "sc_per_loc": 10}},
	},
	"power": {
		2: {3, map[string]int{"no_thin_air": 0, "observation": 0, "propagation": 0, "rmw_atomicity": 0, "sc_per_loc": 3}},
		3: {8, map[string]int{"no_thin_air": 0, "observation": 0, "propagation": 0, "rmw_atomicity": 1, "sc_per_loc": 7}},
		4: {20, map[string]int{"no_thin_air": 6, "observation": 0, "propagation": 0, "rmw_atomicity": 4, "sc_per_loc": 10}},
	},
	"scc": {
		2: {3, map[string]int{"causality": 0, "no_thin_air": 0, "rmw_atomicity": 0, "sc_per_loc": 3}},
		3: {8, map[string]int{"causality": 0, "no_thin_air": 0, "rmw_atomicity": 1, "sc_per_loc": 7}},
		4: {18, map[string]int{"causality": 3, "no_thin_air": 1, "rmw_atomicity": 4, "sc_per_loc": 10}},
	},
}

func checkSeries(t *testing.T, rec goldenRecord, want seriesPoint) {
	t.Helper()
	if rec.Union != want.union || !reflect.DeepEqual(rec.PerAxiom, want.perAxiom) {
		t.Errorf("%s@%d: union %d, per axiom %v; want union %d, per axiom %v",
			rec.Model, rec.Bound, rec.Union, rec.PerAxiom, want.union, want.perAxiom)
	}
}

// TestPaperSeries checks the small bounds of the Fig. 16 and Fig. 20
// series, which the golden corpus does not record.
func TestPaperSeries(t *testing.T) {
	for _, model := range []string{"power", "scc"} {
		for _, bound := range []int{2, 3} {
			rec := runGolden(t, goldenCase{source: "builtin", model: model, bound: bound})
			checkSeries(t, rec, paperSeries[model][bound])
		}
	}
}
