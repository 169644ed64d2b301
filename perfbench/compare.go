package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// Verdicts of one end-to-end metric on one workload.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// judgement is the comparison of one metric between two result sets.
type judgement struct {
	Verdict string
	Wins    int // pairs the new side won
	Pairs   int
}

// judge compares old and current samples of a metric whose better direction
// is "lower" or "higher" and whose regression bound is a share of the old
// median. pairs are (old, new) samples taken under the same seed.
//
//   - improved: the new side wins at least 9 in 10 pairs (ties count for
//     neither) and the medians differ, in its favour, by more than the old
//     side's interquartile distance;
//   - worse: the new median is worse than the old by more than the bound,
//     and the spread is within the bound or every new run is worse than
//     every old one;
//   - unresolved: the run-to-run spread (the wider side's interquartile
//     distance over its median) exceeds the bound, unless every new run
//     is better than every old one;
//   - unchanged: otherwise.
func judge(old, cur []float64, pairs [][2]float64, better string, bound float64) judgement {
	lower := better == "lower"
	beats := func(a, b float64) bool {
		if lower {
			return a < b
		}
		return a > b
	}
	j := judgement{Pairs: len(pairs)}
	for _, p := range pairs {
		if beats(p[1], p[0]) {
			j.Wins++
		}
	}
	mo, mn := median(old), median(cur)
	q1, q3 := quartiles(old)
	worseBy := (mn - mo) / mo
	if !lower {
		worseBy = -worseBy
	}
	so, sn := sorted(old), sorted(cur)
	bestOld, worstOld := so[0], so[len(so)-1]
	bestNew, worstNew := sn[0], sn[len(sn)-1]
	if !lower {
		bestOld, worstOld = worstOld, bestOld
		bestNew, worstNew = worstNew, bestNew
	}
	allBetter := beats(worstNew, bestOld)
	allWorse := beats(worstOld, bestNew)
	spread := math.Max(relSpread(old), relSpread(cur))

	switch {
	case j.Pairs > 0 && float64(j.Wins) >= 0.9*float64(j.Pairs) && beats(mn, mo) && math.Abs(mn-mo) > math.Abs(q3-q1):
		j.Verdict = improved
	case worseBy > bound && (spread <= bound || allWorse):
		j.Verdict = worse
	case spread > bound && !allBetter:
		j.Verdict = unresolved
	default:
		j.Verdict = unchanged
	}
	return j
}

// readReports loads every report line from the given files or directories.
func readReports(paths []string) ([]report, error) {
	var files []string
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			files = append(files, p)
			continue
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.Type().IsRegular() {
				files = append(files, filepath.Join(p, e.Name()))
			}
		}
	}
	var reps []report
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		rs, err := parseReports(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		reps = append(reps, rs...)
	}
	return reps, nil
}

// parseReports extracts the {"report": ...} lines of run output.
func parseReports(r io.Reader) ([]report, error) {
	var reps []report
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.HasPrefix(string(line), `{"report":`) {
			continue
		}
		var wrapper struct {
			Report report `json:"report"`
		}
		if err := json.Unmarshal(line, &wrapper); err != nil {
			return nil, err
		}
		reps = append(reps, wrapper.Report)
	}
	return reps, sc.Err()
}

// series collects one metric's values across runs, keyed by seed.
type series struct {
	values []float64
	bySeed map[uint64]float64
}

func collect(reps []report, workload string, trace bool) map[string]*series {
	out := map[string]*series{}
	for _, r := range reps {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		for name, m := range r.Metrics {
			s := out[name]
			if s == nil {
				s = &series{bySeed: map[uint64]float64{}}
				out[name] = s
			}
			s.values = append(s.values, m.Value)
			s.bySeed[r.Seed] = m.Value
		}
	}
	return out
}

// pairUp matches old and new samples by seed, or by order when the two
// sets share no seed.
func pairUp(old, cur *series) [][2]float64 {
	var pairs [][2]float64
	seeds := make([]uint64, 0, len(old.bySeed))
	for seed := range old.bySeed {
		seeds = append(seeds, seed)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, seed := range seeds {
		if nv, ok := cur.bySeed[seed]; ok {
			pairs = append(pairs, [2]float64{old.bySeed[seed], nv})
		}
	}
	if len(pairs) == 0 {
		for i := 0; i < len(old.values) && i < len(cur.values); i++ {
			pairs = append(pairs, [2]float64{old.values[i], cur.values[i]})
		}
	}
	return pairs
}

func delta(o, n float64) string {
	if o == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(n-o)/o)
}

func quart(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}

func compareMain(args []string) int {
	flags := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	flags.Usage = func() {
		fmt.Fprintln(flags.Output(), "usage: perfbench compare OLD NEW\n\nOLD and NEW are files or directories holding the output of benchmark runs.")
	}
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if flags.NArg() != 2 {
		flags.Usage()
		return 2
	}
	old, err := readReports([]string{flags.Arg(0)})
	if err == nil && len(old) == 0 {
		err = fmt.Errorf("%s holds no run reports", flags.Arg(0))
	}
	var cur []report
	if err == nil {
		cur, err = readReports([]string{flags.Arg(1)})
	}
	if err == nil && len(cur) == 0 {
		err = fmt.Errorf("%s holds no run reports", flags.Arg(1))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	writeComparison(os.Stdout, old, cur)
	return 0
}

// writeComparison prints, per workload, each end-to-end metric's medians,
// quartiles, win fraction and verdict, then the report-only figures and
// the per-layer deltas of the traced runs.
func writeComparison(w io.Writer, old, cur []report) {
	fmt.Fprintf(w, "old: %s\nnew: %s\n", hostLine(old[0].Host), hostLine(cur[0].Host))
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			before, after := collect(old, wl, trace), collect(cur, wl, trace)
			if len(before) == 0 || len(after) == 0 {
				continue
			}
			tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
			if !trace {
				fmt.Fprintf(w, "\n== %s: end-to-end\n", wl)
				fmt.Fprintln(tw, "metric\tunit\told median [q1, q3]\tnew median [q1, q3]\tdelta\twins\tbound\tverdict")
				for _, d := range endToEnd {
					o, n := before[d.Name], after[d.Name]
					if o == nil || n == nil {
						continue
					}
					j := judge(o.values, n.values, pairUp(o, n), d.Better, d.Bound)
					fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%d/%d\t%.0f%%\t%s\n", d.Name, d.Unit,
						quart(o.values), quart(n.values), delta(median(o.values), median(n.values)),
						j.Wins, j.Pairs, 100*d.Bound, j.Verdict)
				}
				tw.Flush()
				fmt.Fprintf(w, "-- %s: report-only figures\n", wl)
			} else {
				fmt.Fprintf(w, "\n== %s: per-layer (traced runs)\n", wl)
			}
			fmt.Fprintln(tw, "metric\tunit\told median\tnew median\tdelta")
			var names []string
			for name := range before {
				if d, ok := lookupMetric(name); ok && (trace || !isEndToEnd(d.Name)) && after[name] != nil {
					names = append(names, name)
				}
			}
			sort.Strings(names)
			for _, name := range names {
				d, _ := lookupMetric(name)
				mo, mn := median(before[name].values), median(after[name].values)
				fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\n", name, d.Unit, mo, mn, delta(mo, mn))
			}
			tw.Flush()
		}
	}
}

func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.Name == name {
			return true
		}
	}
	return false
}

func hostLine(h hostInfo) string {
	return fmt.Sprintf("%s, nproc=%d, GOMAXPROCS=%d, %s, commit %s, source %.12s",
		h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.SourceSHA256)
}
