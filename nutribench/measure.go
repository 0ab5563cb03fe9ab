package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// setupBoots is how many times a run boots the server; setup_s is
	// the median, and the last boot serves the run.
	setupBoots = 7
	// lightRate is the interactive stream's light offered rate (req/s).
	lightRate = 500
	// warmupChunks is the warm-up: /v1/batch requests sent before the
	// window, a fixed amount of work rather than of time, so the window
	// starts from the same cache state however fast the server is.
	warmupChunks = 32
	// rounds is how many times the window cycles through its phases.
	rounds = 4
)

// e2eRun is what one measured run produced.
type e2eRun struct {
	setups []float64
	// throughput is recipes/s of two bulk streams in the best round;
	// bestP50 is the lowest round's median interactive latency.
	throughput float64
	bestP50    time.Duration
	// mixedBulk is recipes/s of the one bulk stream that runs beside the
	// light interactive stream, and underBulk that stream's latency.
	mixedBulk float64
	underBulk dist
	light     dist            // interactive latency at the light rate, alone
	lags      []time.Duration // generator lateness of every open-loop request
	rssMB     float64
	stealFrac float64 // share of the host's CPU time the hypervisor took during the window
	oracle    *oracle

	attempted, failed int64
	recipesServed     int
	deltas            counters // server counter deltas over the window
}

// e2eMetric is one end-to-end figure; gated marks the ones
// BENCHMARK.json bounds and the result line carries.
type e2eMetric struct {
	name, unit string
	value      float64
	note       string
	gated      bool
}

// endToEnd lists the run's end-to-end metrics in README.md's order.
func (e *e2eRun) endToEnd() []e2eMetric {
	lightNote := fmt.Sprintf("n=%d at %d req/s on 2 connections", e.light.n, lightRate)
	underNote := fmt.Sprintf("n=%d at %d req/s beside 1 bulk stream", e.underBulk.n, lightRate)
	bestOf := fmt.Sprintf(", best of %d rounds", rounds)
	q := e.oracle.qual
	return []e2eMetric{
		{"setup_s", "s", median(e.setups), fmt.Sprintf("median of %d boots", len(e.setups)), true},
		{"throughput_per_s", "1/s", e.throughput, "recipes/s, 2 /v1/batch streams closed loop" + bestOf, true},
		{"interactive_p50_ms", "ms", ms(e.bestP50), fmt.Sprintf("%s%s; all rounds %.3f ms", lightNote, bestOf, ms(e.light.p50)), false},
		{"interactive_p99_ms", "ms", ms(e.light.p99), lightNote + ", all rounds", false},
		{"kcal_abs_err_per_serving", "kcal", q.kcalErr(), fmt.Sprintf("%d fully mapped recipes", q.errN), true},
		{"mapped_frac", "ratio", q.mappedFrac(), fmt.Sprintf("%d ingredient lines", q.lines), true},
		{"server_peak_rss_mb", "MiB", e.rssMB, "VmHWM", true},
		{"ops_failed_frac", "ratio", float64(e.failed) / math.Max(1, float64(e.attempted)), fmt.Sprintf("%d of %d", e.failed, e.attempted), false},
		{"bulk_recipes_per_s", "1/s", e.throughput, "as throughput_per_s", false},
		{"interactive_under_bulk_p50_ms", "ms", ms(e.underBulk.p50), underNote, false},
		{"interactive_under_bulk_p99_ms", "ms", ms(e.underBulk.p99), underNote, false},
		{"bulk_beside_interactive_recipes_per_s", "1/s", e.mixedBulk, "1 stream beside the light interactive stream", false},
	}
}

// measure boots the server, runs the workload's window on it and
// returns what it measured. Every server is stopped before it returns.
func measure(cfg config, in *inputs, image string) (*e2eRun, error) {
	e := &e2eRun{oracle: newOracle(in, cfg.seed), deltas: counters{}}
	var srv *child
	for k := 0; k < setupBoots; k++ {
		c, setup, err := startServer(cfg.server, image)
		if err != nil {
			return nil, err
		}
		e.setups = append(e.setups, setup.Seconds())
		if k < setupBoots-1 {
			c.stop()
		} else {
			srv = c
		}
	}
	defer srv.stop()

	d := &load{srv: srv, in: in, o: e.oracle, seq: newZipfSeq(in, cfg.seed), e: e}
	conns := []*http.Client{newConnClient(), newConnClient()}
	for _, c := range conns {
		defer c.CloseIdleConnections()
	}
	d.bulkPhase(conns, nil, time.Minute, warmupChunks/len(conns))

	before, err := scrape(srv.base)
	if err != nil {
		return nil, err
	}
	recipesBefore := d.recipes()
	stealBefore, ticksBefore := cpuTicks()
	// The window runs as rounds, each with every phase. The host's speed
	// drifts over tens of seconds and interference only ever slows the
	// server, so the bounded figures take the best round: the highest
	// throughput and the lowest median latency. Tails and the printed
	// figures pool every round.
	var light, under []time.Duration
	var mixed int
	var mixedBusy time.Duration
	round := time.Duration(cfg.seconds) * time.Second / rounds
	for r := 0; r < rounds; r++ {
		// Half a round saturates the server with two bulk streams; a
		// quarter runs one beside the light interactive stream, and a
		// quarter the interactive stream alone.
		n, el, _ := d.bulkPhase(conns, nil, round/2, 0)
		e.throughput = max(e.throughput, float64(n)/el.Seconds())
		n, el, u := d.bulkPhase(conns[:1], conns[1], round/4, 0)
		mixed, mixedBusy, under = mixed+n, mixedBusy+el, append(under, u...)
		lat := d.openRung(conns, rung{rate: lightRate, dur: round / 4})
		light = append(light, lat...)
		if p50 := summarize(lat).p50; r == 0 || p50 < e.bestP50 {
			e.bestP50 = p50
		}
	}
	e.light, e.underBulk = summarize(light), summarize(under)
	e.mixedBulk = float64(mixed) / mixedBusy.Seconds()

	after, err := scrape(srv.base)
	if err != nil {
		return nil, err
	}
	e.deltas.add(before, after)
	e.recipesServed = d.recipes() - recipesBefore
	if steal, ticks := cpuTicks(); ticks > ticksBefore {
		e.stealFrac = float64(steal-stealBefore) / float64(ticks-ticksBefore)
	}
	if e.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	return e, nil
}

// load holds what the load phases share.
type load struct {
	srv *child
	in  *inputs
	o   *oracle
	seq *zipfSeq
	e   *e2eRun

	nextChunk   int          // where the bulk streams resume in the corpus
	bulkRecipes int          // bulk recipes answered
	served      atomic.Int64 // interactive recipes answered
	mu          sync.Mutex
}

// recipes is how many recipes the server has answered so far.
func (d *load) recipes() int { return d.bulkRecipes + int(d.served.Load()) }

func (d *load) count(attempted, failed int64) {
	d.mu.Lock()
	d.e.attempted += attempted
	d.e.failed += failed
	d.mu.Unlock()
}

// jobs draws n interactive requests from the Zipf sequence.
func (d *load) jobs(n int) (isRecipe []bool, idx []int) {
	isRecipe, idx = make([]bool, n), make([]int, n)
	for i := range isRecipe {
		isRecipe[i], idx[i] = d.seq.next()
	}
	return isRecipe, idx
}

// send issues one interactive request on c and checks its response.
func (d *load) send(c *http.Client, isRecipe bool, idx int) error {
	url, body := d.srv.base+"/v1/estimate", d.in.estBodies[idx]
	if isRecipe {
		url, body = d.srv.base+"/v1/recipe", d.in.recBodies[idx]
	}
	d.count(1, 0)
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		d.count(0, 1)
		d.o.fail("interactive: %v", err)
		return err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: status %d: %.200s", url, resp.StatusCode, got)
	}
	if err == nil {
		err = d.o.interactive(isRecipe, idx, got)
	}
	if err != nil {
		d.count(0, 1)
		d.o.fail("interactive: %v", err)
		return err
	}
	if isRecipe {
		d.served.Add(1)
	}
	return nil
}

// openRung runs one open-loop rung over the given connections and
// returns the latencies of its successful requests. Requests a backlog
// left unsent count as failed: the server could not keep the schedule.
func (d *load) openRung(conns []*http.Client, r rung) []time.Duration {
	isRecipe, idx := d.jobs(int(r.rate * r.dur.Seconds()))
	rr := openLoop(conns, r, func(c *http.Client, i int) error {
		return d.send(c, isRecipe[i], idx[i])
	})
	if unsent := int64(len(idx) - len(rr.samples)); rr.backlog {
		d.count(unsent, unsent)
		d.o.fail("interactive stream fell %s behind its %g req/s schedule; %d requests unsent", maxBehind, r.rate, unsent)
	}
	var lat []time.Duration
	d.mu.Lock()
	for _, s := range rr.samples {
		d.e.lags = append(d.e.lags, s.lag)
		if s.err == nil {
			lat = append(lat, s.lat)
		}
	}
	d.mu.Unlock()
	return lat
}

// bulkPhase runs one /v1/batch stream closed loop on each given
// connection for dur or limit chunks per stream (0: no limit), the
// streams taking the corpus's chunks in turn, beside the interactive
// stream open loop at the light rate on light when that is not nil. It
// returns the recipes answered, the time until the last stream ended,
// and the interactive latencies.
func (d *load) bulkPhase(bulk []*http.Client, light *http.Client, dur time.Duration, limit int) (int, time.Duration, []time.Duration) {
	runs := make([]bulkRun, len(bulk))
	errs := make([]error, len(bulk))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for j, c := range bulk {
		wg.Add(1)
		go func(j int, c *http.Client) {
			defer wg.Done()
			runs[j], errs[j] = runBulk(c, d.srv.base+"/v1/batch", d.in.chunks, d.nextChunk+j, len(bulk), limit, deadline, d.o.bulkLine)
		}(j, c)
	}
	var lat []time.Duration
	if light != nil {
		lat = d.openRung([]*http.Client{light}, rung{rate: lightRate, dur: dur})
	}
	wg.Wait()
	elapsed := time.Since(start)
	recipes := 0
	for j, r := range runs {
		d.nextChunk += r.chunks
		recipes += r.recipes
		d.count(int64(r.recipes), 0)
		if errs[j] != nil {
			d.count(1, 1)
			d.o.fail("bulk: %v", errs[j])
		}
	}
	d.bulkRecipes += recipes
	return recipes, elapsed, lat
}

// cpuTicks reads the host-wide steal and total CPU time from /proc/stat;
// both are zero where it cannot be read.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
