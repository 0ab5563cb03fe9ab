package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

var smallSize = genConfig{paperRecipes: 300, longtailRecipes: 300, chunkRecipes: 64}

func TestInputDigestFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := genInputs(w, 7, smallSize)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		b, err := genInputs(w, 7, smallSize)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		c, err := genInputs(w, 8, smallSize)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if a.digest != b.digest {
			t.Errorf("%s: seed 7 gave digests %s and %s", w, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", w, a.digest)
		}
	}
}

func TestLongtailShapeCheck(t *testing.T) {
	in, err := genInputs("bulk-longtail-sr26", 1, smallSize)
	if err != nil {
		t.Fatal(err)
	}
	// 300 recipes name far fewer than 4x the default cache.
	if err := checkShape("bulk-longtail-sr26", in); err == nil {
		t.Errorf("checkShape accepted %d distinct names", in.distinctNames)
	}
	if in.distinctNames < 1000 {
		t.Errorf("300 long-tail recipes name only %d distinct ingredients; recombination is not varying names", in.distinctNames)
	}
}

// stalledServer answers every request after stall.
func stalledServer(stall time.Duration) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(stall)
		w.WriteHeader(http.StatusOK)
	}))
}

func runAgainst(t *testing.T, stall time.Duration, r rung) rungRun {
	t.Helper()
	srv := stalledServer(stall)
	defer srv.Close()
	c := newConnClient()
	defer c.CloseIdleConnections()
	return openLoop([]*http.Client{c}, r, func(c *http.Client, i int) error {
		resp, err := c.Get(srv.URL)
		if err != nil {
			return err
		}
		resp.Body.Close()
		return nil
	})
}

// TestOpenLoopTimesFromDue drives one connection at 200 req/s (a 5ms
// schedule) against a server that stalls each request 15ms: every
// request waits for the ones before it, so latency measured from the
// due time must grow by about 10ms per request, while the generator's
// own lag stays small.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 15 * time.Millisecond
	rr := runAgainst(t, stall, rung{rate: 200, dur: 100 * time.Millisecond})
	if len(rr.samples) != 20 {
		t.Fatalf("sent %d requests, want 20", len(rr.samples))
	}
	for i, s := range rr.samples {
		if s.err != nil {
			t.Fatalf("request %d: %v", i, s.err)
		}
		if want := stall + time.Duration(i)*(stall-5*time.Millisecond); s.lat < want {
			t.Errorf("request %d: latency %s, want at least %s (stalls must carry over)", i, s.lat, want)
		}
	}
	if last, first := rr.samples[19].lat, rr.samples[0].lat; last < first+150*time.Millisecond {
		t.Errorf("latency grew from %s to %s over 20 stalled requests", first, last)
	}

	quick := runAgainst(t, 0, rung{rate: 200, dur: 100 * time.Millisecond})
	lag := make([]time.Duration, 0, len(quick.samples))
	for _, s := range quick.samples {
		lag = append(lag, s.lag)
	}
	if d := summarize(lag); d.p50 > time.Millisecond {
		t.Errorf("generator lag p50 %s against an idle server", d.p50)
	}
}

func TestOpenLoopAbandonsRungPastTheKnee(t *testing.T) {
	// 1000 req/s against 20ms stalls falls a second behind long before
	// the 2,000 requests are sent.
	rr := runAgainst(t, 20*time.Millisecond, rung{rate: 1000, dur: 2 * time.Second})
	if !rr.backlog {
		t.Fatalf("no backlog flagged after %d requests", len(rr.samples))
	}
	if len(rr.samples) >= 2000 {
		t.Errorf("sent all %d requests despite the backlog", len(rr.samples))
	}
}

const goodLine = `{"servings":2,"method":"none","mapped_fraction":0.5,"total":{"energy_kcal":100},"per_serving":{"energy_kcal":50,"protein_g":1},"ingredients":[{"phrase":"a","grams":1},{"phrase":"b","grams":0}]}`

func TestScanRecipeReadsFields(t *testing.T) {
	f, err := scanRecipe([]byte(goodLine), 2)
	if err != nil {
		t.Fatal(err)
	}
	if f.kcal != 50 || f.mapped != 0.5 {
		t.Errorf("got kcal %v mapped %v, want 50 and 0.5", f.kcal, f.mapped)
	}
}

func TestOracleRejectsBadStreams(t *testing.T) {
	check := func(i int, line []byte) error {
		_, err := scanRecipe(line, 2)
		return err
	}
	good := goodLine + "\n"
	for name, c := range map[string]struct {
		body string
		want int
	}{
		"torn":      {good + goodLine[:40], 2},
		"missing":   {good, 2},
		"extra":     {good + good + good, 2},
		"error":     {good + `{"error":{"code":"bad_json","message":"x","line":2}}` + "\n", 2},
		"truncated": {good + goodLine[:len(goodLine)-2] + "\n", 2},
		"short":     {good + strings.Replace(goodLine, `{"phrase":"b","grams":0}`, `{"grams":0}`, 1) + "\n", 2},
	} {
		if err := auditStream(strings.NewReader(c.body), c.want, check); err == nil {
			t.Errorf("%s stream accepted", name)
		}
	}
	if err := auditStream(strings.NewReader(good+good), 2, check); err != nil {
		t.Errorf("good stream rejected: %v", err)
	}
}

func TestQualityCountsFirstResponseOnly(t *testing.T) {
	q := newQuality(2)
	r := &recipe{Ingredients: []string{"a", "b", "c", "d"}, GoldKcal: 100}
	q.add(0, r, recipeFields{kcal: 90, mapped: 1})
	q.add(0, r, recipeFields{kcal: 0, mapped: 0}) // a repeat is ignored
	q.add(1, r, recipeFields{kcal: 10, mapped: 0.5})
	if got := q.kcalErr(); got != 10 {
		t.Errorf("kcal error %v, want 10 (only the fully mapped recipe counts)", got)
	}
	if got := q.mappedFrac(); got != 0.75 {
		t.Errorf("mapped fraction %v, want 6/8", got)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the result line and the
// repository's BENCHMARK.json in step: the workloads, the gated
// end-to-end metrics and the per-layer list, by name, unit and order.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	e := &e2eRun{oracle: newOracle(&inputs{}, 1)}
	var gated []entry
	for _, m := range e.endToEnd() {
		if m.gated {
			gated = append(gated, entry{m.name, m.unit})
		}
	}
	if !reflect.DeepEqual(gated, spec.EndToEnd) {
		t.Errorf("the result line reports %v, BENCHMARK.json bounds %v", gated, spec.EndToEnd)
	}
	var layers []entry
	for _, m := range layerMetrics {
		layers = append(layers, entry{m.name, m.unit})
	}
	if !reflect.DeepEqual(layers, spec.PerLayer) {
		t.Errorf("layerMetrics %v differ from BENCHMARK.json per_layer %v", layers, spec.PerLayer)
	}
}
