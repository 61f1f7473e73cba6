package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/ingest"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// fixedRate is each HTTP workload's offered load in the fixed-rate
// phase, in operations per second (batch requests for annotate-batch).
// Each is about 30% of the workload's closed-loop capacity on a 2-vCPU
// host, where latency reflects service time rather than queueing.
var fixedRate = map[string]float64{
	"annotate-cold":  3000,
	"annotate-zipf":  4500,
	"annotate-batch": 220,
	"ingest-mixed":   2000,
}

// Quality floors for the served model. Its fit is deterministic (paper
// corpus, seed 1) at NMI 0.9456; fold-in placement of unseen recipes
// measured 0.993-0.995.
const (
	minServedNMI = 0.925
	minPlacement = 0.95
)

// setupsPerGap is how many extra server starts are timed after the
// warm-up and after each load round (or each refit fit): with the start
// that serves the load, 15 per HTTP run.
const setupsPerGap = 2

// rounds is how many fixed-rate + saturation rounds an HTTP run
// measures; the run reports the median round.
const rounds = 6

// runHTTP is an HTTP workload: fit the serving model, start
// textureserver on it, drive the load phases and check every response.
func runHTTP(e *env, name string, res *outcome) error {
	bundle := filepath.Join(e.work, "serve.bundle")
	if err := e.fitServing(bundle); err != nil {
		return err
	}
	served, err := pipeline.LoadBundleFile(bundle)
	if err != nil {
		return err
	}
	mi, err := inspectModel(served)
	if err != nil {
		return err
	}
	if mi.nmi < minServedNMI {
		res.Problems = append(res.Problems, fmt.Sprintf("served model NMI %.4f below the %.3f floor", mi.nmi, minServedNMI))
	}
	pool, err := makePool(probeSeed(e.seed), poolSize)
	if err != nil {
		return err
	}
	t := newTraffic(name, e.seed, pool)

	walDir := func(n int) string { return filepath.Join(e.work, fmt.Sprintf("wal-%d", n)) }
	su := &setups{e: e, args: func(n int) []string {
		args := []string{"-bundle", bundle}
		if name == "ingest-mixed" {
			args = append(args, "-ingest-dir", walDir(n))
		}
		return args
	}}
	// Start 0 serves the load; the others are timed between its rounds.
	srv, err := su.start()
	if err != nil {
		return err
	}
	c, err := driveHTTP(e, t, srv.base, fixedRate[name], mi, res, func() error { return su.probe(setupsPerGap) })
	rss := srv.stop()
	if err != nil {
		return err
	}
	su.record(res)
	if acc := res.EndToEnd["placement_acc"].Value; acc < minPlacement {
		res.Problems = append(res.Problems, fmt.Sprintf("placement accuracy %.4f below the %.2f floor", acc, minPlacement))
	}
	res.EndToEnd.set("peak_rss_mb", rss, "MB")
	res.EndToEnd.set("fit_nmi", mi.nmi, "fraction")
	if name == "ingest-mixed" {
		checkReplay(walDir(0), c, res)
	}
	if e.trace {
		return runTraced(e, name, t, bundle, res)
	}
	return nil
}

// setups times textureserver starts, exec → first /readyz 200, for
// setup_s. A start is single-threaded, and a shared 2-vCPU VM can run
// up to half slower for seconds at a time, so starts made back to back
// all read the same stretch; the run spreads them out, a few between
// each pair of load rounds (or fits), and reports the median.
type setups struct {
	e     *env
	args  func(n int) []string // textureserver arguments of start n
	times []float64
}

// start execs server n, times it, and leaves it running.
func (s *setups) start() (*server, error) {
	n := len(s.times)
	srv, d, err := s.e.launch(s.args(n), filepath.Join(s.e.work, fmt.Sprintf("server-%d.log", n)))
	if err != nil {
		return nil, err
	}
	s.times = append(s.times, d.Seconds())
	return srv, nil
}

// probe times k starts, stopping each server once it is ready.
func (s *setups) probe(k int) error {
	// The generator's own collector must not share the CPUs with a start.
	runtime.GC()
	for i := 0; i < k; i++ {
		srv, err := s.start()
		if err != nil {
			return err
		}
		srv.stop()
	}
	return nil
}

func (s *setups) record(res *outcome) {
	res.Windows["setup_s"] = s.times
	res.EndToEnd.set("setup_s", median(append([]float64(nil), s.times...)), "s")
}

// driveHTTP runs the four load phases against base, validates every
// response, and records the serving metrics. between, if not nil, runs
// after the warm-up and after each round, while no load is offered. The
// checker it returns holds the acknowledged ingest sequence numbers.
func driveHTTP(e *env, t *traffic, base string, rate float64, mi modelInfo, res *outcome, between func() error) (*checker, error) {
	s := time.Duration(e.seconds) * time.Second
	probeDur, warmDur := s/12, s/12
	round := (s - probeDur - warmDur) / rounds
	fixedDur, satDur := round*3/5, round*2/5
	lg := newLoadgen(t, base, e.nconns)
	defer lg.close()

	// GC stays off while measuring, so the generator's collections do
	// not steal the CPUs the server runs on.
	runtime.GC()
	debug.SetGCPercent(-1)
	gap := func() error {
		if between == nil {
			return nil
		}
		return between()
	}
	lg.closedLoop(phaseProbe, 0, 1, probeDur)
	lg.openLoop(phaseWarm, 0, rate, warmDur)
	err := gap()
	fixedStart := make([]time.Time, rounds)
	satStart := make([]time.Time, rounds)
	steal := make([]float64, rounds)
	for r := 0; r < rounds && err == nil; r++ {
		st0, t0 := stealSeconds(), time.Now()
		fixedStart[r] = lg.openLoop(phaseFixed, int8(r), rate, fixedDur)
		satStart[r] = lg.closedLoop(phaseSat, int8(r), e.nconns, satDur)
		steal[r] = 100 * (stealSeconds() - st0) / (time.Since(t0).Seconds() * float64(runtime.NumCPU()))
		err = gap()
	}
	debug.SetGCPercent(100)
	if err != nil {
		return nil, err
	}

	st, err := fetchStats(base)
	if err != nil {
		return nil, err
	}
	c := newChecker(t, mi)
	var annotates, hits, waits, shed, raw, rawHits float64
	for _, conn := range lg.conns {
		for _, sm := range conn.samples {
			res.Attempted++
			c.check(sm, lg.body(sm))
			if sm.status == http.StatusTooManyRequests {
				shed++
			}
			if sm.status != http.StatusOK || t.op(sm.op).kind != kindAnnotate {
				continue
			}
			annotates++
			switch sm.cache {
			case "hit":
				hits++
			case "wait":
				waits++
			}
			if t.readAfterWrite(sm.op) {
				raw++
				if sm.cache == "hit" {
					rawHits++
				}
			}
		}
	}
	res.Failed += c.failed
	res.Problems = append(res.Problems, c.problems...)

	// Each round gives a median latency at the fixed rate and a
	// closed-loop capacity; the run reports the median round, so a
	// stretch of hypervisor steal on a shared host moves a minority of
	// rounds rather than the result. Both are reported, not gated: the
	// host's speed drifts by more than their bound from one run to the
	// next (bench/README.md).
	read := func(sm sample) bool { return succeeded(sm) && t.op(sm.op).kind != kindIngest }
	write := func(sm sample) bool { return succeeded(sm) && t.op(sm.op).kind == kindIngest }
	var p50s, sats []float64
	var fixedN int
	var fixedSpan time.Duration
	for r := int8(0); r < rounds; r++ {
		fixed := lg.samples(phaseFixed, r)
		p50s = append(p50s, median(latenciesMS(fixed, read)))
		sats = append(sats, completionRate(lg.samples(phaseSat, r), satStart[r], satDur, t.recipes()))
		var last time.Time
		for _, sm := range fixed {
			if sm.end.After(last) {
				last = sm.end
			}
		}
		fixedN += len(fixed)
		fixedSpan += last.Sub(fixedStart[r])
	}
	res.Windows["p50_ms"], res.Windows["sat_rps"], res.Windows["steal_pct"] = p50s, sats, steal
	res.Reported.set("p50_ms", median(append([]float64(nil), p50s...)), "ms")
	res.Reported.set("sat_rps", median(append([]float64(nil), sats...)), "1/s")
	res.EndToEnd.set("placement_acc", c.placement(), "fraction")
	res.Reported.set("host.steal_pct", median(append([]float64(nil), steal...)), "%")

	fixed := lg.samples(phaseFixed, -1)
	reads := latenciesMS(fixed, read)
	for _, p := range []struct {
		name string
		q    float64
	}{{"tail.p99_ms", 0.99}, {"tail.p999_ms", 0.999}} {
		if tailSupported(len(reads), p.q) {
			res.Reported.set(p.name, percentile(reads, p.q), "ms")
		}
	}
	if t.workload == "ingest-mixed" {
		res.Reported.set("ingest_p50_ms", median(latenciesMS(fixed, write)), "ms")
	}

	probe := latenciesMS(lg.samples(phaseProbe, 0), read)
	res.PerLayer.set("http.unloaded_p50_us", 1000*median(probe), "us")
	res.PerLayer.set("serve.cache_hit_ratio", ratio(hits, annotates), "fraction")
	res.PerLayer.set("serve.cache_wait_ratio", ratio(waits, annotates), "fraction")
	res.PerLayer.set("serve.warm_hit_ratio", ratio(rawHits, raw), "fraction")
	res.PerLayer.set("serve.shed", shed, "count")
	evictions := 0.0
	if st.Cache != nil {
		evictions = float64(st.Cache.Evictions)
	}
	res.PerLayer.set("serve.cache_evictions", evictions, "count")

	// Validity: the generator must have held its schedule, or the
	// latencies describe the generator rather than the server.
	lagP50, lagP99 := median(lg.lags), percentile(lg.lags, 0.99)
	res.PerLayer.set("loadgen.lag_p50_ms", lagP50, "ms")
	res.PerLayer.set("loadgen.lag_p99_ms", lagP99, "ms")
	achieved := float64(fixedN) / fixedSpan.Seconds()
	res.Reported.set("loadgen.achieved_rps", achieved, "1/s")
	if lagP50 > 0.25 {
		res.Valid = false
		res.Problems = append(res.Problems, fmt.Sprintf("invalid run: generator lag p50 %.3f ms > 0.25 ms", lagP50))
	}
	if achieved < 0.98*rate {
		res.Valid = false
		res.Problems = append(res.Problems, fmt.Sprintf("invalid run: achieved %.0f/s < 98%% of offered %.0f/s", achieved, rate))
	}
	return c, nil
}

// stealSeconds is the CPU time the hypervisor has taken from this
// machine's CPUs since boot, summed over CPUs (the steal column of
// /proc/stat, in USER_HZ ticks of 10 ms).
func stealSeconds() float64 {
	f := strings.Fields(strings.SplitN(readFile("/proc/stat"), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v / 100
}

func succeeded(sm sample) bool { return sm.status >= 200 && sm.status < 300 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func fetchStats(base string) (serve.Stats, error) {
	var st serve.Stats
	resp, err := http.Get(base + "/statusz")
	if err != nil {
		return st, fmt.Errorf("GET /statusz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /statusz: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("GET /statusz: %w", err)
	}
	return st, nil
}

// checkReplay verifies the WAL after ingest-mixed: replay must yield
// exactly the 202-acknowledged records, with sequence numbers 1..n.
func checkReplay(dir string, c *checker, res *outcome) {
	var n uint64
	err := ingest.Replay(dir, 0, func(seq uint64, _ json.RawMessage) error {
		n++
		if seq != n {
			return fmt.Errorf("replayed seq %d at position %d", seq, n)
		}
		if !c.ingestSeq[seq] {
			return fmt.Errorf("replayed seq %d was never acknowledged", seq)
		}
		return nil
	})
	switch {
	case err != nil:
		res.Problems = append(res.Problems, "ingest replay: "+err.Error())
	case n != uint64(len(c.ingestSeq)):
		res.Problems = append(res.Problems, fmt.Sprintf("ingest replay: %d records, %d acknowledged", n, len(c.ingestSeq)))
	}
}
