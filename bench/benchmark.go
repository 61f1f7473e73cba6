package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// benchmarkFile is BENCHMARK.json: the workloads, and the metrics with
// the bound by which each end-to-end metric may worsen.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadBenchmark(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bm benchmarkFile
	if err := json.Unmarshal(b, &bm); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := bm.validateNames(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bm, nil
}

// validateNames checks that every workload and metric name is
// well formed and used once.
func (bm *benchmarkFile) validateNames() error {
	seen := map[string]bool{}
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
	}
	for _, m := range bm.EndToEnd {
		names = append(names, m.Name)
	}
	for _, m := range bm.PerLayer {
		names = append(names, m.Name)
	}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("malformed name %q", n)
		}
		if seen[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	return nil
}

func (bm *benchmarkFile) workloadNames() []string {
	var out []string
	for _, w := range bm.Workloads {
		out = append(out, w.Name)
	}
	return out
}

// checkEmitted verifies that a run emitted exactly the metrics
// BENCHMARK.json declares for its mode, with the declared units.
func (bm *benchmarkFile) checkEmitted(res *outcome, trace bool) error {
	want := map[string]string{}
	got := res.EndToEnd
	if trace {
		got = res.PerLayer
		for _, m := range bm.PerLayer {
			want[m.Name] = m.Unit
		}
	} else {
		for _, m := range bm.EndToEnd {
			want[m.Name] = m.Unit
		}
	}
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			return fmt.Errorf("metric %s not emitted", name)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s in %s, declared %s", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s emitted but not declared", name)
		}
	}
	return nil
}

func sortedKeys(m metrics) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
