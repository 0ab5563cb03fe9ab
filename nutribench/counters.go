package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// counters is one scrape of the server's own counters: every
// /metrics series keyed "name{labels}", and every /v1/stats number
// keyed by its dotted JSON path ("memo.phrase.hits").
type counters map[string]float64

// scrape reads /metrics and /v1/stats. A missing endpoint leaves its
// keys absent; only a transport failure is an error.
func scrape(base string) (counters, error) {
	c := counters{}
	client := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	defer client.CloseIdleConnections()
	if err := fetch(client, base+"/metrics", func(r io.Reader) error { return c.readProm(r) }); err != nil {
		return nil, err
	}
	if err := fetch(client, base+"/v1/stats", func(r io.Reader) error {
		var v any
		if err := json.NewDecoder(r).Decode(&v); err != nil {
			return err
		}
		c.flatten("", v)
		return nil
	}); err != nil {
		return nil, err
	}
	return c, nil
}

func fetch(client *http.Client, url string, read func(io.Reader) error) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := read(resp.Body); err != nil {
		return fmt.Errorf("reading %s: %w", url, err)
	}
	return nil
}

func (c counters) readProm(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			c[line[:sp]] = v
		}
	}
	return sc.Err()
}

func (c counters) flatten(prefix string, v any) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			key := k
			if prefix != "" {
				key = prefix + "." + k
			}
			c.flatten(key, e)
		}
	case float64:
		c[prefix] = x
	}
}

// add accumulates after-before into c for every key both scrapes hold.
func (c counters) add(before, after counters) {
	for k, a := range after {
		if b, ok := before[k]; ok {
			c[k] += a - b
		}
	}
}

// get returns the first of keys present. Counter families may be
// renamed or removed as the server's metrics evolve, so callers list
// every known spelling; ok is false when none is present, and the
// metric is then reported absent.
func (c counters) get(keys ...string) (float64, bool) {
	for _, k := range keys {
		if v, ok := c[k]; ok {
			return v, true
		}
	}
	return 0, false
}

// sum totals every key with the given prefix, for labeled families
// such as requests by route.
func (c counters) sum(prefix string) (float64, bool) {
	total, found := 0.0, false
	for k, v := range c {
		if strings.HasPrefix(k, prefix) {
			total += v
			found = true
		}
	}
	return total, found
}

// absent is the value reported for a per-layer metric whose counters
// the server no longer exports. It never fails a run.
const absent = -1.0

// ratio returns num/den from deltas, or absent.
func ratio(num float64, okNum bool, den float64, okDen bool) float64 {
	if !okNum || !okDen || den <= 0 {
		return absent
	}
	return num / den
}

// counterMetrics derives the per-layer counter metrics from the counter
// deltas over a run's measured windows.
func counterMetrics(d counters, recipes int) map[string]float64 {
	m := map[string]float64{}
	hit := func(cache string) (float64, bool, float64, bool) {
		h, okh := d.get(`nutriserve_memo_hits_total{cache="`+cache+`"}`, "memo."+cache+".hits")
		miss, okm := d.get(`nutriserve_memo_misses_total{cache="`+cache+`"}`, "memo."+cache+".misses")
		return h, okh, h + miss, okh && okm
	}
	m["memo.phrase_hit_ratio"] = ratio(hit("phrase"))
	m["memo.match_hit_ratio"] = ratio(hit("match"))

	admit, rej, okA, okR := 0.0, 0.0, true, true
	for _, cache := range []string{"phrase", "match"} {
		a, oka := d.get(`nutriserve_memo_admissions_total{cache="`+cache+`"}`, "memo."+cache+".admissions")
		r, okr := d.get(`nutriserve_memo_rejections_total{cache="`+cache+`"}`, "memo."+cache+".rejections")
		admit, rej, okA, okR = admit+a, rej+r, okA && oka, okR && okr
	}
	m["memo.admit_ratio"] = ratio(admit, okA, admit+rej, okA && okR)

	l1, okL1 := d.get("nutriserve_shard_l1_hits_total", "shard.l1_hits")
	ph, okPh := d.get("nutriserve_shard_phrases_total", "shard.phrases")
	m["core.l1_hit_ratio"] = ratio(l1, okL1, ph, okPh)

	co, okCo := d.get("nutriserve_flight_coalesced_total", "flight.coalesced")
	le, okLe := d.get("nutriserve_flight_leads_total", "flight.leads")
	m["flight.coalesced_frac"] = ratio(co, okCo, co+le, okCo && okLe)

	av, okAv := d.get("nutriserve_match_prune_postings_avoided_total", "matcher.prune_postings_avoided")
	rk, okRk := d.get("nutriserve_match_pool_gets_total", "matcher.pool_gets")
	m["match.postings_avoided_per_rank"] = ratio(av, okAv, rk, okRk)

	shed, okShed := d.get("nutriserve_http_shed_total", "http.shed")
	reqs, okReqs := d.sum("nutriserve_http_requests_total{")
	m["server.shed_frac"] = ratio(shed, okShed, reqs, okReqs)

	alloc, okAlloc := d.get("nutriserve_runtime_total_alloc_bytes", "go_memstats_alloc_bytes_total", "runtime.total_alloc_bytes")
	m["runtime.alloc_bytes_per_recipe"] = ratio(alloc, okAlloc, float64(recipes), recipes > 0)
	return m
}
