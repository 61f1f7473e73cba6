// Command bench is the repository benchmark. It builds cmd/textureserver
// and cmd/texturetopics from the working tree, drives them as a client
// would (open-loop and closed-loop HTTP over loopback, corpus → promoted
// bundle re-fits), checks every output, and prints every metric by name
// with its unit. With -trace 1 it also replays the same inputs
// in-process through each layer's public functions and reports the
// per-layer breakdown. BENCHMARK.json at the repository root names the
// workloads and metrics; bench/README.md explains them.
//
//	bash bench/run.sh -workload annotate-cold -seed 1 -seconds 15 -trace 0 -out result.json
//	bash bench/run.sh -compare A1.json,A2.json B1.json,B2.json
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}},
// holding the end-to-end metrics, or with -trace 1 the per-layer ones.
// Any failed correctness or validity check exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// outcome is one workload run.
type outcome struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   int      `json:"seconds"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Valid     bool     `json:"valid"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	EndToEnd  metrics  `json:"end_to_end"`
	PerLayer  metrics  `json:"per_layer,omitempty"`
	// Reported holds figures shown but not gated: the serving and fit
	// timings, which drift with the host's speed by more than a bound
	// could allow, tail percentiles, which do not repeat run to run, and
	// the error rate, which is zero on a healthy build.
	Reported metrics `json:"reported"`
	// Windows holds the per-round values behind the medians.
	Windows map[string][]float64 `json:"windows,omitempty"`
}

// env is the run's configuration and the programs under test.
type env struct {
	root    string
	work    string // this run's work directory, removed when it ends
	topics  string // texturetopics binary
	seed    uint64
	seconds int
	trace   bool
	nconns  int // load-generator connections: nproc
	log     io.Writer
	// fitServing writes the served model's bundle to a path, and launch
	// starts a server with textureserver arguments, returning it with
	// its exec → ready time. They exec the programs under test; the
	// smoke test serves in-process instead.
	fitServing func(path string) error
	launch     func(args []string, logPath string) (*server, time.Duration, error)
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

func main() {
	var (
		root     = flag.String("root", ".", "repository root")
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Uint64("seed", 1, "workload seed: the inputs are a function of it")
		seconds  = flag.Int("seconds", 15, "measured seconds per workload")
		trace    = flag.Int("trace", 0, "1: also run the traced in-process replay and print the per-layer metrics")
		out      = flag.String("out", "", "write the full result with provenance to this JSON file")
		compare  = flag.Bool("compare", false, "compare two sets of result files: -compare A1.json,A2.json B1.json,B2.json")
		force    = flag.Bool("force", false, "with -compare: compare results from different CPU models or nproc")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two comma-separated lists of result files")
			os.Exit(2)
		}
		os.Exit(runCompare(os.Stdout, *root, flag.Arg(0), flag.Arg(1), *force))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be ≥ 1 and -trace 0 or 1")
		os.Exit(2)
	}
	code, err := run(*root, *workload, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run executes the named workloads and prints their results. The
// error return is for set-up failures, after which nothing is printed
// on standard output.
func run(root, workload string, seed uint64, seconds int, trace bool, outPath string) (int, error) {
	defer stopAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(2)
	}()

	root, err := filepath.Abs(root)
	if err != nil {
		return 0, err
	}
	bm, err := loadBenchmark(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return 0, err
	}
	names := bm.workloadNames()
	if workload != "all" {
		if !contains(names, workload) {
			return 0, fmt.Errorf("unknown workload %q (have %v)", workload, names)
		}
		names = []string{workload}
	}
	build := filepath.Join(root, ".bench_build")
	bins, err := buildPrograms(root, filepath.Join(build, "bin"))
	if err != nil {
		return 0, err
	}
	// The generator's heap may grow while GC is off in measured
	// phases; this caps it.
	debug.SetMemoryLimit(1 << 30)

	prov := collectProvenance(root, bins, build, seed)
	fmt.Fprintln(os.Stderr, prov.String())
	code := 0
	var results []*outcome
	for _, name := range names {
		e := &env{
			root: root, topics: bins.topics,
			seed: seed, seconds: seconds, trace: trace,
			nconns: runtime.NumCPU(), log: os.Stderr,
			work: filepath.Join(build, "work", fmt.Sprintf("%s-s%d-%d", name, seed, os.Getpid())),
		}
		e.fitServing = func(path string) error {
			_, _, err := runProc(bins.topics, []string{"-bundle-out", path}, filepath.Join(e.work, "texturetopics.log"))
			return err
		}
		e.launch = func(args []string, logPath string) (*server, time.Duration, error) {
			return startServer(bins.server, args, logPath)
		}
		if err := os.MkdirAll(e.work, 0o755); err != nil {
			return 0, err
		}
		start := time.Now()
		res, err := runWorkload(e, name)
		stopAll()
		os.RemoveAll(e.work)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		if err := bm.checkEmitted(res, trace); err != nil {
			res.Correct = false
			res.Problems = append(res.Problems, err.Error())
		}
		e.logf("%s: done in %.1fs", name, time.Since(start).Seconds())
		printHuman(os.Stderr, res)
		printLine(os.Stdout, res)
		if !res.Correct || !res.Valid || res.Failed > 0 {
			code = 1
		}
		results = append(results, res)
	}
	if outPath != "" {
		if err := writeResult(outPath, prov, results); err != nil {
			return 0, err
		}
	}
	return code, nil
}

func runWorkload(e *env, name string) (*outcome, error) {
	res := &outcome{
		Workload: name, Seed: e.seed, Seconds: e.seconds, Trace: e.trace,
		Correct: true, Valid: true,
		EndToEnd: metrics{}, PerLayer: metrics{}, Reported: metrics{},
		Windows: map[string][]float64{},
	}
	var err error
	if name == "refit" {
		err = runRefit(e, res)
	} else {
		err = runHTTP(e, name, res)
	}
	if err != nil {
		return nil, err
	}
	if res.Attempted > 0 {
		res.Reported.set("error_rate", float64(res.Failed)/float64(res.Attempted), "fraction")
	}
	for _, m := range []metrics{res.EndToEnd, res.PerLayer, res.Reported} {
		for name, v := range m {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				res.Problems = append(res.Problems, fmt.Sprintf("metric %s has no samples", name))
				m.set(name, 0, v.Unit)
			}
		}
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// printLine writes the one-line JSON result that ends standard output.
func printLine(w io.Writer, res *outcome) {
	m := res.EndToEnd
	if res.Trace {
		m = res.PerLayer
	}
	line := struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{res.Correct && res.Valid, res.Attempted, res.Failed, m}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintln(w, string(b))
}

func printHuman(w io.Writer, res *outcome) {
	fmt.Fprintf(w, "%s seed=%d correct=%v valid=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Correct, res.Valid, res.Attempted, res.Failed)
	for _, p := range res.Problems {
		fmt.Fprintln(w, "  problem:", p)
	}
	for _, group := range []struct {
		name string
		m    metrics
	}{{"end-to-end", res.EndToEnd}, {"reported", res.Reported}, {"per-layer", res.PerLayer}} {
		for _, name := range sortedKeys(group.m) {
			fmt.Fprintf(w, "  %-10s %-28s %14.6g %s\n", group.name, name, group.m[name].Value, group.m[name].Unit)
		}
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}
