package main

import (
	"bytes"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Phases of an HTTP workload, in run order.
const (
	phaseProbe = iota // closed loop, one connection: unloaded latency
	phaseWarm         // fixed rate, discarded
	phaseFixed        // fixed rate: latency from due time
	phaseSat          // closed loop, every connection: capacity
)

// sample is one request's outcome. Its response body lives in its
// connection's arena at [off, off+n).
type sample struct {
	op     int64
	phase  int8
	round  int8 // measurement round of a fixed-rate or saturation phase
	conn   int8
	cache  string // X-Annotation-Cache
	status int    // 0 for a transport error
	end    time.Time
	lat    time.Duration // from due time (fixed rate) or send time
	off, n int
}

// conn is one load-generator connection: its request buffer, response
// arena and samples. Only its own goroutine touches it during a phase.
type conn struct {
	id      int8
	req     bytes.Buffer
	arena   bytes.Buffer
	samples []sample
}

// loadgen drives a running server over loopback HTTP from this
// process, with at most len(conns) connections.
type loadgen struct {
	t      *traffic
	base   string
	client *http.Client
	next   atomic.Int64 // next operation index; shared by every phase
	conns  []*conn
	lags   []float64 // fixed-rate phases: pacer wake time minus due time, ms
}

func newLoadgen(t *traffic, base string, nconns int) *loadgen {
	tr := &http.Transport{
		MaxConnsPerHost:     nconns,
		MaxIdleConnsPerHost: nconns,
		DisableCompression:  true,
	}
	lg := &loadgen{t: t, base: base, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
	for i := 0; i < nconns; i++ {
		lg.conns = append(lg.conns, &conn{id: int8(i)})
	}
	return lg
}

func (lg *loadgen) close() { lg.client.CloseIdleConnections() }

// send performs operation i on c. For a fixed-rate request due is its
// scheduled time and latency counts from it; otherwise from sending.
func (lg *loadgen) send(c *conn, phase, round int8, i int64, due time.Time) {
	o := lg.t.op(i)
	lg.t.body(o, &c.req)
	s := sample{op: i, phase: phase, round: round, conn: c.id}
	req, err := http.NewRequest(http.MethodPost, lg.base+kindPath[o.kind], bytes.NewReader(c.req.Bytes()))
	if err != nil {
		panic(err) // the URL is ours and well formed
	}
	req.Header.Set("Content-Type", "application/json")
	sent := time.Now()
	if due.IsZero() {
		due = sent
	}
	resp, err := lg.client.Do(req)
	if err == nil {
		s.off = c.arena.Len()
		_, err = c.arena.ReadFrom(resp.Body)
		resp.Body.Close()
		if err == nil {
			s.status = resp.StatusCode
			s.cache = resp.Header.Get("X-Annotation-Cache")
			s.n = c.arena.Len() - s.off
		}
	}
	s.end = time.Now()
	s.lat = s.end.Sub(due)
	c.samples = append(c.samples, s)
}

// closedLoop keeps nconns connections busy back to back for dur and
// returns the phase's start time.
func (lg *loadgen) closedLoop(phase, round int8, nconns int, dur time.Duration) time.Time {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for _, c := range lg.conns[:nconns] {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				lg.send(c, phase, round, lg.next.Add(1)-1, time.Time{})
			}
		}(c)
	}
	wg.Wait()
	return start
}

// openLoop offers rate operations per second on a constant schedule
// for dur, whatever the server's pace. A pacer goroutine locked to its
// OS thread releases each operation at its due time, sleeping with raw
// nanosleep: Go runtime timers overshoot by about a millisecond on a
// small VM. It returns the phase's start time.
func (lg *loadgen) openLoop(phase, round int8, rate float64, dur time.Duration) time.Time {
	n := int(rate * dur.Seconds())
	type due struct {
		i  int64
		at time.Time
	}
	// Sized to the number of sends so the pacer never blocks on a slow
	// server: queueing shows up as latency from due time instead.
	ch := make(chan due, n)
	first := lg.next.Add(int64(n)) - int64(n)
	lags := make([]float64, n)
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for _, c := range lg.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for d := range ch {
				lg.send(c, phase, round, d.i, d.at)
			}
		}(c)
	}
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for j := 0; j < n; j++ {
			at := dueTime(start, rate, j)
			sleepUntil(at)
			lags[j] = float64(time.Since(at)) / float64(time.Millisecond)
			ch <- due{first + int64(j), at}
		}
		close(ch)
	}()
	wg.Wait()
	if phase == phaseFixed {
		lg.lags = append(lg.lags, lags...)
	}
	return start
}

// dueTime is when operation j of a constant-rate schedule starting at
// start is due. Each time derives from j, so rounding never drifts.
func dueTime(start time.Time, rate float64, j int) time.Time {
	return start.Add(time.Duration(float64(j) * float64(time.Second) / rate))
}

func sleepUntil(at time.Time) {
	for {
		d := time.Until(at)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-checks
	}
}

// samples returns the samples of phase, across connections: of one
// round, or of all rounds when round is negative.
func (lg *loadgen) samples(phase, round int8) []sample {
	var out []sample
	for _, c := range lg.conns {
		for _, s := range c.samples {
			if s.phase == phase && (round < 0 || s.round == round) {
				out = append(out, s)
			}
		}
	}
	return out
}

func (lg *loadgen) body(s sample) []byte {
	return lg.conns[s.conn].arena.Bytes()[s.off : s.off+s.n]
}

// completionRate is the successful completions in [start,
// start+dur) per second, each weighted by units.
func completionRate(ss []sample, start time.Time, dur time.Duration, units int) float64 {
	n := 0
	for _, s := range ss {
		if k := s.end.Sub(start); succeeded(s) && k >= 0 && k < dur {
			n += units
		}
	}
	return float64(n) / dur.Seconds()
}

// latenciesMS returns the latencies of ss whose operation passes keep,
// in milliseconds.
func latenciesMS(ss []sample, keep func(sample) bool) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if keep(s) {
			out = append(out, float64(s.lat)/float64(time.Millisecond))
		}
	}
	return out
}
