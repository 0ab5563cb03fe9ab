package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"nutriprofile/internal/memo"
	"nutriprofile/internal/metrics/promtest"
)

// scrape GETs /metrics and parses it strictly.
func scrape(t *testing.T, s *Server) map[string]*promtest.Family {
	t.Helper()
	w := getPath(t, s.Handler(), "/metrics")
	if w.Code != 200 {
		t.Fatalf("/metrics status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type %q", ct)
	}
	return promtest.Parse(t, w.Body.String())
}

// TestMemoMetricsExposition drives traffic through a live server and
// checks the scraped memo families against the estimator's own
// CacheStats snapshot: every family present for both caches with
// exactly a cache label, counter values matching, and the derived
// hit-ratio gauge equal to hits/(hits+misses) of the very same scrape.
func TestMemoMetricsExposition(t *testing.T) {
	s := newTestServer(t, nil)
	// Repeat phrases so the phrase cache records both misses and hits.
	for i := 0; i < 3; i++ {
		w := postJSON(t, s.Handler(), "/v1/estimate", `{"phrase":"2 cups flour"}`)
		if w.Code != 200 {
			t.Fatalf("estimate status %d", w.Code)
		}
	}
	postJSON(t, s.Handler(), "/v1/estimate", `{"phrase":"1 tbsp olive oil"}`)

	fams := scrape(t, s)
	for name, f := range fams {
		if !strings.HasPrefix(name, "nutriserve_memo_") {
			continue
		}
		if f.Type != "counter" && f.Type != "gauge" {
			t.Errorf("memo family %s has type %q", name, f.Type)
		}
		for _, smp := range f.Samples {
			if c := smp.Labels["cache"]; len(smp.Labels) != 1 || (c != "phrase" && c != "match") {
				t.Errorf("memo sample %s: labels %v, want exactly cache=phrase|match", smp.Name, smp.Labels)
			}
		}
	}
	value := func(name, cache string) float64 {
		t.Helper()
		return promtest.Value(t, fams, name, name, map[string]string{"cache": cache})
	}

	phrase, match := s.est.CacheStats()
	for _, c := range []struct {
		label string
		st    memo.Stats
	}{{"phrase", phrase}, {"match", match}} {
		wantCounters := map[string]float64{
			"nutriserve_memo_hits_total":          float64(c.st.Hits),
			"nutriserve_memo_misses_total":        float64(c.st.Misses),
			"nutriserve_memo_evictions_total":     float64(c.st.Evictions),
			"nutriserve_memo_rejections_total":    float64(c.st.Rejections),
			"nutriserve_memo_admissions_total":    float64(c.st.Admissions),
			"nutriserve_memo_sketch_resets_total": float64(c.st.SketchResets),
			"nutriserve_memo_entries":             float64(c.st.Entries),
		}
		for name, want := range wantCounters {
			if got := value(name, c.label); got != want {
				t.Errorf("%s{cache=%q} = %v, want %v", name, c.label, got, want)
			}
		}
		// The gauge must be derived from the same snapshot the counter
		// lines render — recompute it from the scraped lines, not from
		// a second CacheStats call.
		hits := value("nutriserve_memo_hits_total", c.label)
		misses := value("nutriserve_memo_misses_total", c.label)
		want := 0.0
		if hits+misses > 0 {
			want = hits / (hits + misses)
		}
		if ratio := value("nutriserve_memo_hit_ratio", c.label); math.Abs(ratio-want) > 1e-12 {
			t.Errorf("hit_ratio{cache=%q} = %v, want %v from the scrape's own counters", c.label, ratio, want)
		}
	}
	// The traffic above guarantees phrase-cache activity.
	if value("nutriserve_memo_hits_total", "phrase") == 0 {
		t.Error("no phrase hits recorded — repeat estimate did not hit the cache")
	}
	if value("nutriserve_memo_hit_ratio", "phrase") <= 0 {
		t.Error("phrase hit_ratio not positive after repeat traffic")
	}
}

// TestMatchMetricsExposition drives cache-missing traffic through a
// live server and checks the scraped nutriserve_match_* families
// against the estimator's own MatcherStats snapshot: every family
// present exactly once as a bare unlabeled sample, values matching,
// and the prune counters actually moving under ranking traffic.
func TestMatchMetricsExposition(t *testing.T) {
	s := newTestServer(t, nil)
	// Distinct multi-word phrases: every one is a phrase-cache miss that
	// reaches the ranking engine, so the prune counters must move.
	for i := 0; i < 8; i++ {
		body := fmt.Sprintf(`{"phrase":"%d cups raw whole milk"}`, i+1)
		if w := postJSON(t, s.Handler(), "/v1/estimate", body); w.Code != 200 {
			t.Fatalf("estimate status %d", w.Code)
		}
	}

	samples := map[string]float64{}
	for name, f := range scrape(t, s) {
		if !strings.HasPrefix(name, "nutriserve_match_") {
			continue
		}
		if f.Type != "counter" && f.Type != "gauge" {
			t.Errorf("match family %s has type %q", name, f.Type)
		}
		for _, smp := range f.Samples {
			if len(smp.Labels) != 0 {
				t.Errorf("match sample %s carries labels %v", smp.Name, smp.Labels)
			}
			samples[smp.Name] = smp.Value
		}
	}

	st := s.est.MatcherStats()
	want := map[string]float64{
		"nutriserve_match_pool_gets_total":              float64(st.PoolGets),
		"nutriserve_match_pool_misses_total":            float64(st.PoolMisses),
		"nutriserve_match_probe_terms_total":            float64(st.AdaptiveProbeTerms),
		"nutriserve_match_ranks_total":                  float64(st.Ranks),
		"nutriserve_match_prune_compactions_total":      float64(st.PruneCompactions),
		"nutriserve_match_prune_docs_dropped_total":     float64(st.PruneDocsDropped),
		"nutriserve_match_prune_gather_exits_total":     float64(st.PruneGatherExits),
		"nutriserve_match_prune_postings_avoided_total": float64(st.PrunePostingsAvoided),
		"nutriserve_match_prune_terms_skipped_total":    float64(st.PruneTermsSkipped),
		"nutriserve_match_docs":                         float64(st.Docs),
		"nutriserve_match_posting_entries":              float64(st.PostingEntries),
		"nutriserve_match_vocab_size":                   float64(st.VocabSize),
	}
	if len(samples) != len(want) {
		t.Errorf("scraped %d match samples, want %d", len(samples), len(want))
	}
	for name, wv := range want {
		got, ok := samples[name]
		if !ok {
			t.Errorf("family %s missing from scrape", name)
			continue
		}
		if got != wv {
			t.Errorf("%s = %v, want %v", name, got, wv)
		}
	}
	// Ranking traffic ran, so the engine must have reported real work
	// and real avoidance: index gauges nonzero, at least one query
	// ranked, and the pruned engine's headline counter moving.
	if samples["nutriserve_match_docs"] == 0 || samples["nutriserve_match_vocab_size"] == 0 {
		t.Error("index-shape gauges are zero on a live server")
	}
	if samples["nutriserve_match_ranks_total"] == 0 {
		t.Error("no ranking queries recorded after estimate traffic")
	}
	if samples["nutriserve_match_prune_docs_dropped_total"] == 0 {
		t.Error("prune_docs_dropped_total = 0: the bar tests never fired under ranking traffic")
	}
}

// parityExempt lists the /v1/stats leaves that have no /metrics series
// of equal value.
var parityExempt = map[string]bool{
	// Per-bucket counts and bounds: /metrics exposes the cumulative
	// _bucket series with the bound (in seconds) as the le label.
	"buckets": true,
	// _sum / _count.
	"mean_ms": true,
	// The le="+Inf" bucket minus the last finite one.
	"overflow": true,
}

// leaf is one numeric /v1/stats value and its JSON path.
type leaf struct {
	path  []string
	value float64
}

// statsLeaves flattens a decoded /v1/stats body into its non-exempt
// numeric leaves, in a deterministic order.
func statsLeaves(v any, path []string, out []leaf) []leaf {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if !parityExempt[k] {
				out = statsLeaves(x[k], append(path[:len(path):len(path)], k), out)
			}
		}
	case float64:
		out = append(out, leaf{path, x})
	}
	return out
}

// metricValue is the value a leaf's series carries: millisecond leaves
// are exported in seconds.
func (l leaf) metricValue() float64 {
	if strings.HasSuffix(l.path[len(l.path)-1], "_ms") {
		return l.value / 1000
	}
	return l.value
}

// renderBoth renders one stats value as the /v1/stats leaves and the
// parsed /metrics samples.
func renderBoth(t *testing.T, st *StatsResponse) ([]leaf, []promtest.Sample) {
	t.Helper()
	body, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var tree any
	if err := json.Unmarshal(body, &tree); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeMetrics(&buf, st); err != nil {
		t.Fatal(err)
	}
	var samples []promtest.Sample
	for _, f := range promtest.Parse(t, buf.String()) {
		samples = append(samples, f.Samples...)
	}
	return statsLeaves(tree, nil, nil), samples
}

// TestStatsMetricsParity renders one stats() value both ways: every
// numeric /v1/stats leaf outside parityExempt must have a /metrics
// series with an equal value, and a leaf under a route (or status
// class) map must land on a series carrying that route (class) label.
// The series of each leaf is found on a marked copy of the value whose
// leaves are all distinct, so an equal value identifies it; the real
// value is then checked series by series.
func TestStatsMetricsParity(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	for _, p := range []string{"2 cups flour", "2 cups flour", "1 tbsp olive oil"} {
		postJSON(t, h, "/v1/estimate", fmt.Sprintf(`{"phrase":%q}`, p))
	}
	postJSON(t, h, "/v1/estimate", `{"phrase":"not json`)
	postJSON(t, h, "/v1/recipe", `{"ingredients":["2 cups flour","1 cup sugar","2 eggs"],"servings":4}`)
	postBatch(t, h, `{"phrase":"1 cup milk"}`+"\nnot json\n")
	getPath(t, h, "/v1/stats")
	st := s.stats()

	// Mark: replace every leaf by a distinct value and decode it back.
	body, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var tree any
	if err := json.Unmarshal(body, &tree); err != nil {
		t.Fatal(err)
	}
	next := 1000.0
	var mark func(v any) any
	mark = func(v any) any {
		switch x := v.(type) {
		case map[string]any:
			for k, e := range x {
				if !parityExempt[k] {
					x[k] = mark(e)
				}
			}
		case float64:
			next += 7
			return next
		}
		return v
	}
	if body, err = json.Marshal(mark(tree)); err != nil {
		t.Fatal(err)
	}
	var marked StatsResponse
	if err := json.Unmarshal(body, &marked); err != nil {
		t.Fatal(err)
	}

	leaves, samples := renderBoth(t, &marked)
	if len(leaves) < 50 {
		t.Fatalf("only %d /v1/stats leaves; traffic did not populate the routes", len(leaves))
	}
	series := map[string][]string{} // leaf path → keys of its series
	for _, l := range leaves {
		key := strings.Join(l.path, "/")
		for _, smp := range samples {
			if smp.Value != l.metricValue() {
				continue
			}
			for i, seg := range l.path[:len(l.path)-1] {
				if lbl := map[string]string{"routes": "route", "by_class": "class"}[seg]; lbl != "" && smp.Labels[lbl] != l.path[i+1] {
					t.Errorf("%s: series %s lacks %s=%q", key, smp.Key(), lbl, l.path[i+1])
				}
			}
			series[key] = append(series[key], smp.Key())
		}
		if len(series[key]) == 0 {
			t.Errorf("/v1/stats leaf %s has no /metrics series", key)
		}
	}

	leaves, samples = renderBoth(t, &st)
	byKey := map[string]float64{}
	for _, smp := range samples {
		byKey[smp.Key()] = smp.Value
	}
	for _, l := range leaves {
		key := strings.Join(l.path, "/")
		for _, sk := range series[key] {
			if got, ok := byKey[sk]; !ok || got != l.metricValue() {
				t.Errorf("%s = %v on /v1/stats but %s = %v (present %v) on /metrics", key, l.value, sk, got, ok)
			}
		}
	}
}
