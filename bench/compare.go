package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// verdict is compare's finding for one end-to-end metric on one workload.
type verdict struct {
	workload, metric string
	parent, change   [3]float64 // quartiles
	pairs, wins      int
	alternating      bool
	worse            float64 // change median's worsening, as a share of the parent's
	finding          string
}

// compareMain compares report files (-out) of a parent commit and a change,
// per workload and end-to-end metric, by the rules in bench/README.md.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	parentGlob := fs.String("parent", "", "glob of the parent commit's report files")
	changeGlob := fs.String("change", "", "glob of the change's report files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	parent, err := loadReports(*parentGlob)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svmbench compare:", err)
		return 2
	}
	change, err := loadReports(*changeGlob)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svmbench compare:", err)
		return 2
	}
	status := 0
	for _, v := range compareReports(parent, change) {
		printVerdict(v)
		if v.finding == "regression" {
			status = 1
		}
	}
	return status
}

// loadReports reads untraced reports, grouped by workload and sorted by
// start time.
func loadReports(glob string) (map[string][]*report, error) {
	files, err := filepath.Glob(glob)
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("no report files match %q", glob)
	}
	out := map[string][]*report{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Start.Before(rs[j].Start) })
	}
	return out, nil
}

// compareReports applies, per workload present on both sides and per
// end-to-end metric:
//   - a change median worse than the parent's by more than the metric's
//     bound is a regression;
//   - otherwise, a spread (quartile distance over median) wider than the
//     bound on either side is unresolved, unless every change run beats
//     every parent run;
//   - a gain needs at least 10 alternating parent/change pairs, wins in at
//     least 9 of 10 pairs (ties count for neither), and a median gap larger
//     than the parent's quartile distance;
//   - anything else is unchanged.
func compareReports(parent, change map[string][]*report) []verdict {
	var names []string
	for w := range parent {
		names = append(names, w)
	}
	sort.Strings(names)
	var out []verdict
	for _, w := range names {
		ps, cs := parent[w], change[w]
		if len(cs) == 0 {
			continue
		}
		for _, m := range endToEnd {
			pv, cv := values(ps, m.name), values(cs, m.name)
			v := verdict{workload: w, metric: m.name, parent: quartiles(pv), change: quartiles(cv),
				pairs: min(len(ps), len(cs)), alternating: alternates(ps, cs)}
			sign := 1.0 // +1 when lower is better
			if m.better == "higher" {
				sign = -1
			}
			for i := 0; i < v.pairs; i++ {
				if sign*(cv[i]-pv[i]) < 0 {
					v.wins++
				}
			}
			pm, cm := v.parent[1], v.change[1]
			v.worse = div(sign*(cm-pm), pm)
			allBetter := true
			for _, c := range cv {
				for _, p := range pv {
					allBetter = allBetter && sign*(c-p) < 0
				}
			}
			switch {
			case v.worse > m.bound:
				v.finding = "regression"
			case spread(v.parent) > m.bound || spread(v.change) > m.bound:
				v.finding = "unresolved"
				if allBetter {
					v.finding = "better in every run"
				}
			case v.pairs >= 10 && v.alternating && v.wins*10 >= v.pairs*9 && sign*(cm-pm) < 0 &&
				math.Abs(cm-pm) > v.parent[2]-v.parent[0]:
				v.finding = "gain"
			default:
				v.finding = "unchanged"
			}
			out = append(out, v)
		}
	}
	return out
}

func values(rs []*report, metric string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

// spread is the quartile distance as a share of the median.
func spread(q [3]float64) float64 { return div(q[2]-q[0], q[1]) }

// alternates reports whether the two sides' runs, merged by start time,
// take turns.
func alternates(ps, cs []*report) bool {
	if len(ps)+len(cs) < 2 {
		return false
	}
	merged := make([]bool, 0, len(ps)+len(cs)) // true = change
	i, j := 0, 0
	for i < len(ps) || j < len(cs) {
		if j >= len(cs) || (i < len(ps) && ps[i].Start.Before(cs[j].Start)) {
			merged = append(merged, false)
			i++
		} else {
			merged = append(merged, true)
			j++
		}
	}
	for k := 1; k < len(merged); k++ {
		if merged[k] == merged[k-1] {
			return false
		}
	}
	return true
}

func printVerdict(v verdict) {
	fmt.Printf("%-9s %-12s parent %.5g [%.5g %.5g]  change %.5g [%.5g %.5g]  worse %+.1f%%  pairs %d (alternating %v) wins %d  %s\n",
		v.workload, v.metric, v.parent[1], v.parent[0], v.parent[2], v.change[1], v.change[0], v.change[2],
		v.worse*100, v.pairs, v.alternating, v.wins, v.finding)
}
