package main

import (
	"fmt"
	"os"
	"reflect"
	"sort"
)

// The steadiness command runs each workload n times in fresh processes,
// with seeds 1..n, prints each end-to-end metric's median, quartiles and
// interquartile range over the median, and fails when a work count or
// the failed share differs between runs. It then makes one traced run
// per workload and reports its overhead against the untraced median.

// quartiles returns Q1, Q2, Q3 the way Python's
// statistics.quantiles(vs, n=4) computes them (the exclusive method).
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j, delta := i*m/4, i*m%4
		j = min(max(j, 1), len(s)-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func runSteady(n, seconds int, workdir string) int {
	code := 0
	for _, wl := range workloadOrder {
		var runs []childRun
		for s := 1; s <= n; s++ {
			r, err := runChild(workdir, wl, uint64(s), seconds, 0, 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				code = 1
				continue
			}
			if !r.res.Correct {
				fmt.Printf("%s seed %d: incorrect (%d of %d failed)\n", wl, s, r.res.Failed, r.res.Attempted)
				code = 1
			}
			runs = append(runs, r)
		}
		if len(runs) == 0 {
			continue
		}
		for i, r := range runs[1:] {
			if !reflect.DeepEqual(r.counts, runs[0].counts) {
				fmt.Printf("%s: work counts differ between runs 1 and %d:\n  %v\n  %v\n", wl, i+2, runs[0].counts, r.counts)
				code = 1
			}
			if r.res.Failed*runs[0].res.Attempted != runs[0].res.Failed*r.res.Attempted {
				fmt.Printf("%s: failed share differs between runs 1 and %d\n", wl, i+2)
				code = 1
			}
		}
		fmt.Printf("\n%s: %d runs, %d ops attempted per run, %d failed, counts %v\n",
			wl, len(runs), runs[0].res.Attempted, runs[0].res.Failed, runs[0].counts)
		fmt.Printf("%-20s %14s %14s %14s %9s\n", "metric", "median", "q1", "q3", "iqr/med")
		var names []string
		for name := range runs[0].res.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		var wallMedian float64
		for _, name := range names {
			var vs []float64
			for _, r := range runs {
				vs = append(vs, r.res.Metrics[name].Value)
			}
			q1, q2, q3 := quartiles(vs)
			fmt.Printf("%-20s %14.6g %14.6g %14.6g %8.2f%%\n", name, q2, q1, q3, 100*(q3-q1)/q2)
			if name == "wall_s" {
				wallMedian = q2
			}
		}
		tr, err := runChild(workdir, wl, 1, seconds, 1, wallMedian)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: traced run:", err)
			code = 1
			continue
		}
		fmt.Printf("%s traced run (seed 1), per-layer metrics:\n", wl)
		names = names[:0]
		for name := range tr.res.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := tr.res.Metrics[name]
			fmt.Printf("  %-24s %14.6g %s\n", name, m.Value, m.Unit)
		}
	}
	return code
}
