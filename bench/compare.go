package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runCompare compares two sets of result files, given as
// comma-separated lists. For every (workload, end-to-end metric) it
// prints each side's median and quartiles and whether B's median lies
// within the metric's bound of A's. Results from a different CPU model
// or nproc are refused unless force is set. It returns the exit code:
// 0 when every pair is within bound, 1 otherwise, 2 on bad input.
func runCompare(w io.Writer, root, listA, listB string, force bool) int {
	bm, err := loadBenchmark(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, provA, err := loadResults(listA)
	if err == nil {
		var b map[string]map[string][]float64
		var provB []provenance
		b, provB, err = loadResults(listB)
		if err == nil {
			err = sameHost(append(provA, provB...), force)
		}
		if err == nil {
			return printComparison(w, bm, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

// loadResults reads result files into workload → metric → values.
func loadResults(list string) (map[string]map[string][]float64, []provenance, error) {
	vals := map[string]map[string][]float64{}
	var provs []provenance
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		provs = append(provs, rf.Provenance)
		for _, r := range rf.Runs {
			if vals[r.Workload] == nil {
				vals[r.Workload] = map[string][]float64{}
			}
			for _, ms := range []metrics{r.EndToEnd, r.Reported} {
				for name, m := range ms {
					vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
				}
			}
		}
	}
	return vals, provs, nil
}

func sameHost(provs []provenance, force bool) error {
	for _, p := range provs[1:] {
		if (p.CPUModel != provs[0].CPUModel || p.NProc != provs[0].NProc) && !force {
			return fmt.Errorf("results come from different hosts (%q/%d vs %q/%d); pass -force to compare anyway",
				provs[0].CPUModel, provs[0].NProc, p.CPUModel, p.NProc)
		}
	}
	return nil
}

func printComparison(w io.Writer, bm *benchmarkFile, a, b map[string]map[string][]float64) int {
	code := 0
	var workloads []string
	for name := range a {
		workloads = append(workloads, name)
	}
	sort.Strings(workloads)
	fmt.Fprintf(w, "%-15s %-20s %10s %10s %10s | %10s %10s %10s | %7s %s\n",
		"workload", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "change", "verdict")
	for _, wl := range workloads {
		gated := map[string]bool{}
		for _, m := range bm.EndToEnd {
			gated[m.Name] = true
			change, ok := printRow(w, wl, m.Name, a[wl][m.Name], b[wl][m.Name])
			if !ok {
				continue
			}
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			if worse > m.Bound {
				fmt.Fprintf(w, "WORSE than the %.0f%% bound\n", 100*m.Bound)
				code = 1
			} else {
				fmt.Fprintln(w, "within bound")
			}
		}
		// The reported figures follow, for reading; they have no bound.
		var reported []string
		for name := range a[wl] {
			if !gated[name] {
				reported = append(reported, name)
			}
		}
		sort.Strings(reported)
		for _, name := range reported {
			if _, ok := printRow(w, wl, name, a[wl][name], b[wl][name]); ok {
				fmt.Fprintln(w, "not gated")
			}
		}
	}
	return code
}

// printRow prints one comparison row without its verdict and returns
// the relative change of B's median from A's. It prints nothing when
// either side has no values.
func printRow(w io.Writer, workload, name string, va, vb []float64) (float64, bool) {
	if len(va) == 0 || len(vb) == 0 {
		return 0, false
	}
	a1, a2, a3 := quartiles(va)
	b1, b2, b3 := quartiles(vb)
	change := 0.0 // a zero error rate on both sides is no change
	if a2 != 0 {
		change = (b2 - a2) / a2
	} else if b2 != 0 {
		change = math.Inf(1)
	}
	fmt.Fprintf(w, "%-15s %-20s %10.4g %10.4g %10.4g | %10.4g %10.4g %10.4g | %+6.1f%% ",
		workload, name, a1, a2, a3, b1, b2, b3, 100*change)
	return change, true
}
