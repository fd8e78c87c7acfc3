package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the benchmark reads: its workloads
// and metric bounds.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// specMetric is one metric of BENCHMARK.json; Bound is nil for the
// per-layer metrics, which have none.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadResults reads every result file under dir, grouped by workload and
// ordered by seed and path, so the i-th runs of two directories produced
// by the same repeat command form a pair.
func loadResults(dir string) (map[string][]resultFile, error) {
	type entry struct {
		path string
		rf   resultFile
	}
	var all []entry
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".json") || strings.HasPrefix(d.Name(), "trace-") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if rf.Workload != "" {
			all = append(all, entry{path, rf})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].rf.Seed != all[j].rf.Seed {
			return all[i].rf.Seed < all[j].rf.Seed
		}
		return all[i].path < all[j].path
	})
	out := make(map[string][]resultFile)
	for _, e := range all {
		out[e.rf.Workload] = append(out[e.rf.Workload], e.rf)
	}
	return out, nil
}

// judgement is one (metric, workload) comparison.
type judgement struct {
	parentQ, changeQ [3]float64 // quartiles; [1] is the median
	pairs, wins      int
	verdict          string
}

// judge applies the gain rule (the change wins at least nine tenths of
// the pairs, ties counting for neither, and the medians differ by more
// than the parent's interquartile distance) and, for bounded metrics,
// the regression rule (the change's median is worse than the parent's
// by more than bound × parent median). A bounded metric whose parent
// spread exceeds its bound is unresolved unless every change run beats
// every parent run. Unbounded metrics that move by more than the
// parent's spread without meeting the gain rule either way are
// unresolved.
func judge(better string, bound *float64, parent, change []float64) judgement {
	var j judgement
	j.parentQ[0], j.parentQ[1], j.parentQ[2] = quartiles(parent)
	j.changeQ[0], j.changeQ[1], j.changeQ[2] = quartiles(change)
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	j.pairs = min(len(parent), len(change))
	losses := 0
	for i := 0; i < j.pairs; i++ {
		switch d := sign * (change[i] - parent[i]); {
		case d > 0:
			j.wins++
		case d < 0:
			losses++
		}
	}
	iqr := j.parentQ[2] - j.parentQ[0]
	gain := sign * (j.changeQ[1] - j.parentQ[1]) // > 0: the change is better
	ninth := 0.9 * float64(j.pairs)
	switch {
	case j.pairs == 0:
		j.verdict = "unresolved"
	case float64(j.wins) >= ninth && gain > iqr:
		j.verdict = "improved"
	case bound != nil:
		limit := *bound * math.Abs(j.parentQ[1])
		switch {
		case iqr > limit && !allBetter(sign, parent, change):
			j.verdict = "unresolved"
		case -gain > limit:
			j.verdict = "regressed"
		default:
			j.verdict = "unchanged"
		}
	case float64(losses) >= ninth && -gain > iqr:
		j.verdict = "regressed"
	case math.Abs(gain) <= iqr:
		j.verdict = "unchanged"
	default:
		j.verdict = "unresolved"
	}
	return j
}

// allBetter reports whether every change value beats every parent value.
func allBetter(sign float64, parent, change []float64) bool {
	if len(parent) == 0 || len(change) == 0 {
		return false
	}
	worstChange, bestParent := math.Inf(1), math.Inf(-1)
	for _, c := range change {
		worstChange = math.Min(worstChange, sign*c)
	}
	for _, p := range parent {
		bestParent = math.Max(bestParent, sign*p)
	}
	return worstChange > bestParent
}

// minCompareRuns is the number of runs compare needs per side and
// workload: the gain rule is defined over at least ten pairs.
const minCompareRuns = 10

// runCompare prints, for every (metric, workload), both sides' medians
// and quartiles, the share of pairs the change won and a verdict.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare PARENT_DIR CHANGE_DIR (run from the repository root)")
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	parent, err := loadResults(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	change, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	code := 0
	fmt.Fprintf(stdout, "%-16s %-30s %-30s %-30s %-6s %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, wl := range sortedKeys(parent) {
		p, c := parent[wl], change[wl]
		if len(p) < minCompareRuns || len(c) < minCompareRuns {
			fmt.Fprintf(stderr, "bench compare: %s has %d parent and %d change runs, need %d each\n", wl, len(p), len(c), minCompareRuns)
			code = 1
			continue
		}
		for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
			if len(metricValues(p, m.Name)) == 0 && len(metricValues(c, m.Name)) == 0 {
				continue
			}
			j := judgeMetric(m, p, c)
			fmt.Fprintf(stdout, "%-16s %-30s %-30s %-30s %-6s %s\n", wl, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", j.parentQ[1], j.parentQ[0], j.parentQ[2]),
				fmt.Sprintf("%.4g [%.4g, %.4g]", j.changeQ[1], j.changeQ[0], j.changeQ[2]),
				fmt.Sprintf("%d/%d", j.wins, j.pairs), j.verdict)
		}
	}
	return code
}

// rawDiagnostic names, for each metric scaled by the host-speed
// reference (hostspeed.go), the diagnostic holding its value as timed.
var rawDiagnostic = map[string]string{"setup_s": "setup_raw_s"}

// verdictRank orders verdicts from worst to best.
var verdictRank = map[string]int{"regressed": 0, "unresolved": 1, "unchanged": 2, "improved": 3}

// judgeMetric judges one metric over two sides' runs. A scaled metric is
// judged as timed too, and is unresolved when that verdict is the worse
// one, so the scaling cannot hide a regression.
func judgeMetric(m specMetric, parent, change []resultFile) judgement {
	j := judge(m.Better, m.Bound, metricValues(parent, m.Name), metricValues(change, m.Name))
	if raw, ok := rawDiagnostic[m.Name]; ok {
		r := judge(m.Better, m.Bound, metricValues(parent, raw), metricValues(change, raw))
		if verdictRank[r.verdict] < verdictRank[j.verdict] {
			j.verdict = "unresolved"
		}
	}
	return j
}

// metricValues collects one metric, or else the diagnostic of that name,
// over a side's runs, in run order.
func metricValues(runs []resultFile, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		} else if d, ok := r.Diagnostics[name]; ok {
			v = append(v, d)
		}
	}
	return v
}
