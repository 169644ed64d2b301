// Command perfbench is memsynth's benchmark harness. It drives the engine
// through memsynth.SynthesizeContext and memsynthd through
// server.New(...).Handler() over loopback HTTP, all in one process, and
// checks every operation's output. Workloads and the layer predictions
// behind them are documented in workloads.go; BENCHMARK.json at the
// repository root declares the workloads and metrics.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload explore-tso7 --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh compare OLD NEW
//
// compare reads two result sets (files or directories of saved run
// output) and prints, per workload, each end-to-end metric's medians,
// quartiles, win fraction and verdict under BENCHMARK.json's bounds, then
// the report-only figures and the per-layer deltas.
//
// A run prints a report line ({"report": ...}, with the host block, every
// figure and its sample count) and then, as its last line, the result
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 a separate traced run
// replays the engine layer by layer and reports the per-layer ones; its
// spans are written to .bench_build/spans/<workload>.tsv when it ends.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// A run repeats its set-up at least setupReps times and until setupMin
// has passed; setup_s is the median. Cheap set-ups thus get enough
// repetitions for a steady median.
const (
	setupReps = 3
	setupMin  = 2 * time.Second
)

// repeatSetup runs setup as often as the constants above ask, checking
// each, and returns the times in seconds.
func repeatSetup(setup func() error, out *runOut) []float64 {
	var times []float64
	start := time.Now()
	for len(times) < setupReps || time.Since(start) < setupMin {
		t0 := time.Now()
		err := setup()
		times = append(times, time.Since(t0).Seconds())
		if !out.check(err) {
			break
		}
	}
	return times
}

// timedSetup is repeatSetup between two references; it also returns the
// host factor they give.
func timedSetup(setup func() error, out *runOut) ([]float64, float64) {
	before := calibrate(nil)
	times := repeatSetup(setup, out)
	return times, hostFactor(before, calibrate(nil))
}

// maxErrors bounds the error messages a report carries.
const maxErrors = 10

// runOut collects one run's outcome.
type runOut struct {
	attempted, failed int
	errors            []string
	values            map[string]float64
	samples           map[string]int
	detail            map[string]any
}

func newRunOut() *runOut {
	return &runOut{values: map[string]float64{}, samples: map[string]int{}, detail: map[string]any{}}
}

// check counts one checked operation, failed when err is non-nil, and
// reports whether it succeeded.
func (o *runOut) check(err error) bool {
	o.attempted++
	if err == nil {
		return true
	}
	o.failed++
	if len(o.errors) < maxErrors {
		o.errors = append(o.errors, err.Error())
	}
	return false
}

// record counts attempted operations of which len(errs) failed.
func (o *runOut) record(attempted int, errs []error) {
	o.attempted += attempted
	o.failed += len(errs)
	for _, err := range errs {
		if len(o.errors) < maxErrors {
			o.errors = append(o.errors, err.Error())
		}
	}
}

func (o *runOut) set(name string, v float64, samples int) {
	o.values[name] = v
	o.samples[name] = samples
}

// setTail reports a tail percentile, keeping which percentile it is and
// how many samples lie beyond it in the report's detail.
func (o *runOut) setTail(name string, t tail) {
	o.set(name, t.Value, t.Samples)
	o.detail[name] = t
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type reportMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// report is the full record of one run; compare reads these.
type report struct {
	Workload  string                  `json:"workload"`
	Seed      uint64                  `json:"seed"`
	Seconds   int                     `json:"seconds"`
	Trace     bool                    `json:"trace"`
	Host      hostInfo                `json:"host"`
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	ErrorRate float64                 `json:"error_rate"`
	Errors    []string                `json:"errors,omitempty"`
	Metrics   map[string]reportMetric `json:"metrics"`
	Detail    map[string]any          `json:"detail,omitempty"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := flags.String("workload", "", "workload name: "+strings.Join(workloadNames, ", "))
	seed := flags.Uint64("seed", 1, "input seed: serve-mix's request schedule (the engine workloads' inputs are fixed)")
	seconds := flags.Int("seconds", 10, "measuring window in seconds")
	trace := flags.Int("trace", 0, "1 for the traced per-layer run, 0 for end-to-end")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// Scratch space inside the checkout's build directory.
	build := filepath.Join(root, ".bench_build")
	tmp, err := os.MkdirTemp(build, "run-")
	if errors.Is(err, fs.ErrNotExist) {
		if err = os.MkdirAll(build, 0o755); err == nil {
			tmp, err = os.MkdirTemp(build, "run-")
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	ctx := context.Background()
	window := time.Duration(*seconds) * time.Second
	out := newRunOut()
	traced := *trace == 1
	var last []*tracer
	w, isEngine := engineWorkloads[*workload]
	switch {
	case isEngine && !traced:
		runEngine(ctx, w, window, out)
	case isEngine:
		last = traceEngine(ctx, w, window, tmp, out)
	case *workload == "serve-mix" && !traced:
		runServe(*seed, window, tmp, out)
	case *workload == "serve-mix":
		last = traceServe(ctx, *seed, window, tmp, out)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n",
			*workload, strings.Join(workloadNames, ", "))
		return 2
	}
	if len(last) > 0 {
		// The last traced pass's spans, kept in memory until now.
		rel := filepath.Join(".bench_build", "spans", *workload+".tsv")
		out.check(writeSpans(filepath.Join(root, rel), last))
		out.detail["spans"] = rel
	}

	rep := report{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: traced,
		Host:      host(root),
		Attempted: out.attempted, Failed: out.failed, Errors: out.errors,
		ErrorRate: ratio(float64(out.failed), float64(out.attempted)),
		Metrics:   map[string]reportMetric{},
		Detail:    out.detail,
	}
	if !traced {
		out.set("error_rate", rep.ErrorRate, out.attempted)
	}
	for name, v := range out.values {
		d, ok := lookupMetric(name)
		if !ok {
			panic("perfbench: undeclared metric " + name)
		}
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			rep.Metrics[name] = reportMetric{Value: v, Unit: d.Unit, Samples: out.samples[name]}
		}
	}
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	complete := true
	for _, d := range metricsFor(traced) {
		m, ok := rep.Metrics[d.Name]
		if !ok {
			complete = false
			continue
		}
		res.Metrics[d.Name] = metricValue{Value: m.Value, Unit: d.Unit}
	}
	res.Correct = out.failed == 0 && out.attempted > 0 && complete
	rep.Correct = res.Correct
	if res.Attempted == 0 {
		res.Attempted = 1 // a run that could not start still attempted itself
		res.Failed = 1
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]report{"report": rep}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// writeSpans writes the given replays' spans, one TSV block each.
func writeSpans(path string, trs []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, tr := range trs {
		if err := tr.writeTSV(f); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
