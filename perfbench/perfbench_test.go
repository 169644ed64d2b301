package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(seq(10)); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Fatalf("quartiles(3,1,2) = %v, %v; want 1, 3", q1, q3)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n          int
		want, pick float64
		beyond     int
	}{
		{n: 1000, want: 99, pick: 99, beyond: 10},
		{n: 100, want: 99, pick: 90, beyond: 10}, // p99 and p95 have 1 and 5 beyond
		{n: 200, want: 99, pick: 95, beyond: 10},
		{n: 100, want: 90, pick: 90, beyond: 10},
		{n: 99, want: 90, pick: 75, beyond: 24}, // p90 is rank 90: 9 beyond
		{n: 25, want: 90, pick: 50, beyond: 12},
		{n: 5, want: 90, pick: 50, beyond: 2}, // nothing qualifies: the median, flagged by beyond
		{n: 30, want: 50, pick: 50, beyond: 15},
	}
	for _, c := range cases {
		got := tailPercentile(seq(c.n), c.want)
		if got.Percentile != c.pick || got.Beyond != c.beyond || got.Samples != c.n {
			t.Errorf("n=%d want p%v: got p%v with %d beyond of %d; want p%v with %d beyond",
				c.n, c.want, got.Percentile, got.Beyond, got.Samples, c.pick, c.beyond)
		}
		if got.Value != float64(nearestRank(got.Percentile, c.n)) {
			t.Errorf("n=%d: value %v is not the nearest-rank p%v", c.n, got.Value, got.Percentile)
		}
	}
}

func TestSelfTimeSubtractsNestedSpans(t *testing.T) {
	var now int64
	tr := newTracerClock(func() int64 { return now })
	at := func(ts int64) { now = ts }

	at(0)
	gen := tr.begin(layerGen) // 0..100
	at(10)
	pk := tr.begin(layerProgramKey) // 10..20
	at(20)
	tr.end(pk)
	at(30)
	en := tr.begin(layerEnumerate) // 30..90
	at(35)
	d := tr.begin(layerDecide) // 35..40
	at(40)
	tr.end(d)
	at(50)
	c := tr.begin(layerCheck) // 50..70
	at(55)
	k := tr.begin(layerKey) // 55..65, nested two deep in enumerate
	at(65)
	tr.end(k)
	at(70)
	tr.end(c)
	at(90)
	tr.end(en)
	at(100)
	tr.end(gen)
	at(100)
	m := tr.begin(layerMerge) // a second root: 100..107
	at(107)
	tr.end(m)

	self := tr.selfTimes()
	want := map[layer]int64{
		layerGen:        100 - 10 - 60, // minus program key and enumerate
		layerProgramKey: 10,
		layerEnumerate:  60 - 5 - 20, // minus decide and check, not key
		layerDecide:     5,
		layerCheck:      20 - 10,
		layerKey:        10,
		layerMerge:      7,
	}
	for l := layer(0); l < numLayers; l++ {
		if self[l] != want[l] {
			t.Errorf("%s self time = %d, want %d", l, self[l], want[l])
		}
	}
	var total int64
	for _, v := range self {
		total += v
	}
	if total != 107 {
		t.Errorf("self times sum to %d, want the 107ns the roots cover", total)
	}
}

func TestSpansSurviveChunkBoundaries(t *testing.T) {
	var now int64
	tr := newTracerClock(func() int64 { now++; return now })
	root := tr.begin(layerGen)
	for i := 0; i < 3*chunkSize; i++ {
		tr.end(tr.begin(layerCheck))
	}
	tr.end(root)
	self := tr.selfTimes()
	if self[layerCheck] != 3*chunkSize {
		t.Fatalf("check self time %d, want %d", self[layerCheck], 3*chunkSize)
	}
	// The root spans 1 + 6*chunkSize ticks, half of which its children
	// cover.
	if self[layerGen] != 3*chunkSize+1 {
		t.Fatalf("gen self time %d, want %d", self[layerGen], 3*chunkSize+1)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	pairsOf := func(old, cur []float64) [][2]float64 {
		var ps [][2]float64
		for i := range old {
			ps = append(ps, [2]float64{old[i], cur[i]})
		}
		return ps
	}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	cases := []struct {
		name     string
		old, cur []float64
		better   string
		want     string
	}{
		{"faster beyond the spread", tight, scale(tight, 0.8), "lower", improved},
		{"same figures", tight, tight, "lower", unchanged},
		{"slower within the bound", tight, scale(tight, 1.05), "lower", unchanged},
		{"slower beyond the bound", tight, scale(tight, 1.2), "lower", worse},
		{"higher-is-better drop", tight, scale(tight, 0.8), "higher", worse},
		{"higher-is-better rise", tight, scale(tight, 1.2), "higher", improved},
		{"spread wider than the bound", wide, scale(wide, 1.02), "lower", unresolved},
		{"wide but every new run wins", wide, scale(wide, 0.3), "lower", improved},
		{"wide and every new run loses", wide, scale(wide, 3), "lower", worse},
		// A better median that wins only 7 in 10 pairs is no gain.
		{"wins too few pairs", tight, []float64{90, 90, 90, 90, 90, 90, 90, 105, 105, 105}, "lower", unresolved},
	}
	for _, c := range cases {
		j := judge(c.old, c.cur, pairsOf(c.old, c.cur), c.better, 0.1)
		if j.Verdict != c.want {
			t.Errorf("%s: verdict %s (wins %d/%d), want %s", c.name, j.Verdict, j.Wins, j.Pairs, c.want)
		}
	}
}

func TestReplayReproducesEngineKeys(t *testing.T) {
	ctx := context.Background()
	// tso@4 exercises admit; c11@3 bypasses it.
	for _, r := range coldPool {
		var acc engineLayers
		res, tr, err := traceRequest(ctx, r, &acc)
		if err != nil {
			t.Fatalf("%s: %v", r, err)
		}
		if tr.n == 0 {
			t.Fatalf("%s: replay recorded no spans", r)
		}
		m := acc.metrics()
		if m["synth.gen.programs_raw"] != float64(res.Stats.ProgramsRaw) {
			t.Errorf("%s: replay generated %v programs, engine %d", r, m["synth.gen.programs_raw"], res.Stats.ProgramsRaw)
		}
		if m["admit.ns"] <= 0 {
			t.Errorf("%s: admit.ns = %v; the admit layer is always asked", r, m["admit.ns"])
		}
		if got := m["admit.decide.calls"] > 0; got != (r.Model == "sc" || r.Model == "tso") {
			t.Errorf("%s: admit.decide.calls = %v", r, m["admit.decide.calls"])
		}
	}
}

func TestReplayMismatchIsAnError(t *testing.T) {
	r := coldPool[1] // tso@4
	res, err := r.synthesize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m, opts, err := r.resolve()
	if err != nil {
		t.Fatal(err)
	}
	rc := replay(newTracer(), m, opts)
	if err := replayMatches(rc, res); err != nil {
		t.Fatalf("faithful replay rejected: %v", err)
	}
	drifted := rc
	drifted.unionKeys = append([]string{"bogus"}, rc.unionKeys[1:]...)
	if replayMatches(drifted, res) == nil {
		t.Error("replay with a different union key accepted")
	}
	drifted = rc
	drifted.executions++
	if replayMatches(drifted, res) == nil {
		t.Error("replay with a different execution count accepted")
	}
	// A different request's result must not pass for this one.
	other, err := coldPool[0].synthesize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if replayMatches(rc, other) == nil {
		t.Error("replay of tso@4 matched the sc@4 result")
	}
}

func TestCheckResultCatchesWrongOutput(t *testing.T) {
	r := coldPool[0]
	res, err := r.synthesize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ref := r.Ref
	ref.Union++
	if checkResult(res, ref) == nil {
		t.Error("wrong union count accepted")
	}
	ref = r.Ref
	ref.UnionKeys = strings.Repeat("0", 64)
	if checkResult(res, ref) == nil {
		t.Error("wrong union keys accepted")
	}
	res.Union.Entries = res.Union.Entries[1:]
	if checkResult(res, r.Ref) == nil {
		t.Error("truncated union accepted")
	}
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the metric and
// workload tables the harness reports against.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, harness has %v", names, workloadNames)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, harness has %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d] = %+v, harness has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestEveryLayerMetricIsProduced checks that a traced pass yields every
// declared per-layer metric and nothing undeclared.
func TestEveryLayerMetricIsProduced(t *testing.T) {
	var acc engineLayers
	produced := acc.metrics()
	out := newRunOut()
	setLayerMetrics(out, []map[string]float64{produced}, storeSamples{
		encode: []float64{1}, put: []float64{1}, disk: []float64{1}, lru: []float64{1}, hit: []float64{2},
	}, 1, 0, 0)
	for name := range out.values {
		if _, ok := lookupMetric(name); !ok {
			t.Errorf("undeclared metric %s", name)
		}
	}
	for _, d := range perLayer {
		if _, ok := out.values[d.Name]; !ok {
			t.Errorf("declared metric %s is never produced", d.Name)
		}
	}
}

func TestHitPoolDigestsAreDistinct(t *testing.T) {
	pool := hitPool()
	if len(pool) != 128 {
		t.Fatalf("hit pool has %d requests, want 128 (twice the default LRU)", len(pool))
	}
	seen := map[string]bool{}
	for _, r := range append(pool, coldPool...) {
		key := string(synthBody(r.Model, r.Opts, ""))
		if seen[key] {
			t.Fatalf("duplicate request %s", key)
		}
		seen[key] = true
	}
}

// TestServeMixLoad drives a short serve-mix load from both clients at
// once (run it under -race) and checks every request succeeded.
func TestServeMixLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes both request pools")
	}
	sm, err := setupServe(t.TempDir() + "/store")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sm.fx.close(); err != nil {
			t.Error(err)
		}
	}()
	ls := sm.load(1, 2*time.Second)
	if len(ls.errs) > 0 {
		t.Fatalf("%d of %d requests failed; first: %v", len(ls.errs), ls.attempted, ls.errs[0])
	}
	if len(ls.hitMS) == 0 || len(ls.coldMS) == 0 {
		t.Fatalf("load made %d hits and %d cold writes; want both", len(ls.hitMS), len(ls.coldMS))
	}
	if len(ls.rate) == 0 || len(ls.rssMB) == 0 {
		t.Fatalf("no slice or RSS samples: %d slices, %d RSS samples", len(ls.rate), len(ls.rssMB))
	}
	sp := storeSamples{}
	res, err := coldPool[0].synthesize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := sm.fx.storePass(res, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.hit) != hitReps || len(sp.disk) != 1 {
		t.Fatalf("store pass timed %d hits and %d disk loads", len(sp.hit), len(sp.disk))
	}
}
