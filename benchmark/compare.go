package main

import (
	"fmt"
	"os"
)

// compareFiles prints one row per (workload, metric) that both results files
// hold and that carries a bound: both medians and quartiles, the bound and a
// verdict. It returns 1 if any row is regressed or unresolved.
//
//	ok          the new side is not worse than the old one by more than the bound
//	regressed   it is
//	unresolved  the run-to-run spread of either side is wider than the bound, so
//	            the sides cannot be told apart - unless every new run reads
//	            better than every old one
//
// Inputs differ by seed, and so do exact counts such as cycles, so runs are
// paired by seed: only seeds both files hold are used, and the verdict is
// taken on values divided by the old side's median for their seed. Two files
// of one run per seed therefore compare seed by seed; two files of many runs
// of one seed compare as plain samples.
func compareFiles(oldPath, newPath string) int {
	oldRuns, err := readResults(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	newRuns, err := readResults(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if a, b := oldRuns[0].Host, newRuns[0].Host; a != b {
		fmt.Printf("warning: hosts differ (%+v vs %+v); wall-clock rows are not comparable\n", a, b)
	}
	// bySeed collects a metric's values per seed; end-to-end numbers come
	// from untraced runs only.
	bySeed := func(runs []result, workload, metric string) map[int64][]float64 {
		out := map[int64][]float64{}
		for _, r := range runs {
			if r.Workload != workload || r.Traced {
				continue
			}
			if m, ok := r.Metrics[metric]; ok {
				out[r.Seed] = append(out[r.Seed], m.Value)
			}
		}
		return out
	}
	fmt.Printf("%-18s %-26s %12s %25s %12s %25s %7s  %s\n", "workload", "metric", "old median", "old q1..q3", "new median", "new q1..q3", "bound", "verdict")
	bad := 0
	for _, w := range workloads {
		for _, m := range metrics {
			if m.Bound == 0 {
				continue
			}
			o, n := bySeed(oldRuns, w.Name, m.Name), bySeed(newRuns, w.Name, m.Name)
			var oldAll, newAll, oldRel, newRel []float64
			for seed, ov := range o {
				nv, ok := n[seed]
				base := median(ov)
				if !ok || base == 0 {
					continue
				}
				for _, v := range ov {
					oldAll, oldRel = append(oldAll, v), append(oldRel, v/base)
				}
				for _, v := range nv {
					newAll, newRel = append(newAll, v), append(newRel, v/base)
				}
			}
			if len(oldAll) == 0 {
				continue
			}
			v := verdict(m, oldRel, newRel)
			if v != "ok" {
				bad++
			}
			oq1, oq3 := quartiles(oldAll)
			nq1, nq3 := quartiles(newAll)
			fmt.Printf("%-18s %-26s %12.6g %25s %12.6g %25s %6.0f%%  %s\n", w.Name, m.Name,
				median(oldAll), fmt.Sprintf("%.6g..%.6g", oq1, oq3), median(newAll), fmt.Sprintf("%.6g..%.6g", nq1, nq3), m.Bound*100, v)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func verdict(m metricSpec, old, new []float64) string {
	om, nm := median(old), median(new)
	worse := (nm - om) / om
	if m.Better == "higher" {
		worse = (om - nm) / om
	}
	if spread(old) > m.Bound || spread(new) > m.Bound {
		allBetter := true
		for _, n := range new {
			for _, o := range old {
				if (m.Better == "higher" && n <= o) || (m.Better == "lower" && n >= o) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved"
		}
	}
	if worse > m.Bound {
		return "regressed"
	}
	return "ok"
}
