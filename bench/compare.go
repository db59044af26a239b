package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// benchSpec is the part of BENCHMARK.json -compare reads: each end-to-end
// metric's direction and regression bound (a share of the old median).
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of one workload × metric comparison.
const (
	better     = "better"
	worse      = "worse"
	same       = "same"
	unresolved = "unresolved"
)

// verdict compares new runs against old ones. A side whose quartile spread
// exceeds the bound cannot resolve a change of that size: unresolved,
// unless every new run reads better than every old one. Otherwise a median
// move beyond the bound is better or worse, and anything inside it is the
// same.
func verdict(old, new []float64, lowerIsBetter bool, bound float64) string {
	oq1, om, oq3 := quartiles(old)
	nq1, nm, nq3 := quartiles(new)
	sign := 1.0
	allBetter := maxOf(new) < minOf(old)
	if !lowerIsBetter {
		sign = -1
		allBetter = minOf(new) > maxOf(old)
	}
	if (oq3-oq1)/math.Abs(om) > bound || (nq3-nq1)/math.Abs(nm) > bound {
		if allBetter {
			return better
		}
		return unresolved
	}
	change := sign * (nm - om) / math.Abs(om)
	switch {
	case change > bound:
		return worse
	case change < -bound:
		return better
	}
	return same
}

func minOf(xs []float64) float64 { return sorted(xs)[0] }
func maxOf(xs []float64) float64 { d := sorted(xs); return d[len(d)-1] }

// compareFiles prints, for every workload in both files and every
// end-to-end metric, both sides' medians and quartiles and a verdict. It
// returns exit code 1 when any metric got worse.
func compareFiles(root, oldPath, newPath string, w io.Writer) (int, error) {
	var spec benchSpec
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &spec); err != nil {
		return 0, err
	}
	var oldF, newF resultsFile
	if err := readJSON(oldPath, &oldF); err != nil {
		return 0, err
	}
	if err := readJSON(newPath, &newF); err != nil {
		return 0, err
	}
	oldRuns, newRuns := byWorkload(oldF.Runs), byWorkload(newF.Runs)
	code := 0
	fmt.Fprintf(w, "%-12s %-18s %28s %28s %8s  %s\n", "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "change", "verdict")
	for _, wl := range workloads {
		o, n := oldRuns[wl.name], newRuns[wl.name]
		if len(o) == 0 || len(n) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			ov, nv := metricValues(o, m.Name), metricValues(n, m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			v := verdict(ov, nv, m.Better == "lower", m.Bound)
			if v == worse {
				code = 1
			}
			oq1, om, oq3 := quartiles(ov)
			nq1, nm, nq3 := quartiles(nv)
			fmt.Fprintf(w, "%-12s %-18s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %+7.2f%%  %s (bound %g%%)\n",
				wl.name, m.Name, om, oq1, oq3, nm, nq1, nq3, 100*(nm-om)/math.Abs(om), v, 100*m.Bound)
		}
	}
	return code, nil
}

func byWorkload(runs []*runResult) map[string][]*runResult {
	out := map[string][]*runResult{}
	for _, r := range runs {
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out
}

func metricValues(runs []*runResult, name string) []float64 {
	var vs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			vs = append(vs, v.Value)
		}
	}
	return vs
}
