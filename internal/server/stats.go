package server

// The observability surface: GET /v1/stats and GET /metrics render the
// same StatsResponse, gathered once per request by stats(). /v1/stats is
// that value as JSON; /metrics is the per-route families (metrics.Text
// Routes) followed by one table row per remaining family. Adding a
// counter to a component's snapshot type puts it on /v1/stats; one row
// below puts it on /metrics, and TestStatsMetricsParity fails until it
// does. DESIGN.md §17 has the naming convention.

import (
	"encoding/json"
	"io"
	"net/http"

	"nutriprofile/internal/core"
	"nutriprofile/internal/match"
	"nutriprofile/internal/memo"
	"nutriprofile/internal/metrics"
)

// StatsResponse is the GET /v1/stats body: the full observability
// surface of one serving process. Stats is off the hot path and keeps
// encoding/json — its shape churns with every new counter, and pinning
// a hand encoder to it would buy nothing.
type StatsResponse struct {
	Memo struct {
		Phrase memo.Stats `json:"phrase"`
		Match  memo.Stats `json:"match"`
	} `json:"memo"`
	Env     core.EnvStats        `json:"env"`
	Matcher match.MatcherStats   `json:"matcher"`
	DB      core.SnapshotStats   `json:"db"`
	HTTP    metrics.Snapshot     `json:"http"`
	Runtime metrics.RuntimeStats `json:"runtime"`
}

// stats gathers every component's snapshot once. Runtime values come
// from the 1 s sampler, so a scrape never stops the world itself.
func (s *Server) stats() StatsResponse {
	var out StatsResponse
	out.Memo.Phrase, out.Memo.Match = s.est.CacheStats()
	out.Env = s.est.EnvStats()
	out.Matcher = s.est.MatcherStats()
	out.DB = s.est.SnapshotStats()
	out.HTTP = s.reg.Snapshot()
	out.Runtime = s.runtime.Sample()
	return out
}

// Both handlers drop the write error: it means the scraper went away,
// so there is no one left to report it to.

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.PrometheusContentType())
	st := s.stats()
	_ = writeMetrics(w, &st)
}

// writeMetrics renders st in Prometheus text format.
func writeMetrics(w io.Writer, st *StatsResponse) error {
	t := metrics.NewText(w)
	t.Routes(st.HTTP.Routes)
	for _, f := range families {
		t.Header(f.name, f.help, f.typ)
		for _, smp := range f.samples(st) {
			if f.label == "" {
				t.Sample(f.name, smp.value)
			} else {
				t.Sample(f.name, smp.value, f.label, smp.label)
			}
		}
	}
	return t.Flush()
}

// family is one row of the /metrics table: a family header and the
// samples it reads out of a StatsResponse.
type family struct {
	name, help, typ string
	label           string // label key; "" for an unlabeled family
	samples         func(st *StatsResponse) []sample
}

// sample is one series of a family: its label value (when the family
// has a label) and a value of a type metrics.Text.Sample formats.
type sample struct {
	label string
	value any
}

// scalar is an unlabeled family with one sample.
func scalar(name, help, typ string, v func(st *StatsResponse) any) family {
	return family{name, help, typ, "", func(st *StatsResponse) []sample { return []sample{{value: v(st)}} }}
}

// perCache is a memo family with one sample per cache.
func perCache(name, help, typ string, v func(m memo.Stats) float64) family {
	return family{name, help, typ, "cache", func(st *StatsResponse) []sample {
		return []sample{{"phrase", v(st.Memo.Phrase)}, {"match", v(st.Memo.Match)}}
	}}
}

// families lists every /metrics family after the per-route ones, in
// output order. The HTTP and batch rows keep their historical order; in
// the other groups counters come before gauges, names sorted within
// each kind. Memo and match rows return float64: those families have
// printed floats since they were introduced, and scrapers compare lines.
var families = []family{
	scalar("nutriserve_http_in_flight", "Requests currently being served.", "gauge",
		func(st *StatsResponse) any { return st.HTTP.InFlight }),
	scalar("nutriserve_http_shed_total", "Requests rejected by admission control.", "counter",
		func(st *StatsResponse) any { return st.HTTP.Shed }),
	scalar("nutriserve_batch_lines_total", "NDJSON lines answered on bulk streams.", "counter",
		func(st *StatsResponse) any { return st.HTTP.Batch.Lines }),
	scalar("nutriserve_batch_line_errors_total", "Per-line errors reported in-stream on bulk streams.", "counter",
		func(st *StatsResponse) any { return st.HTTP.Batch.LineErrors }),
	scalar("nutriserve_batch_windows_total", "Estimator windows processed by bulk streams.", "counter",
		func(st *StatsResponse) any { return st.HTTP.Batch.Windows }),
	scalar("nutriserve_batch_streams_active", "Bulk streams currently held open.", "gauge",
		func(st *StatsResponse) any { return st.HTTP.Batch.Active }),

	perCache("nutriserve_memo_admissions_total", "Window-overflow candidates admitted to the cache's main segment (TinyLFU).", "counter",
		func(m memo.Stats) float64 { return float64(m.Admissions) }),
	perCache("nutriserve_memo_evictions_total", "Entries evicted from the memo cache.", "counter",
		func(m memo.Stats) float64 { return float64(m.Evictions) }),
	perCache("nutriserve_memo_hits_total", "Memo cache lookup hits.", "counter",
		func(m memo.Stats) float64 { return float64(m.Hits) }),
	perCache("nutriserve_memo_misses_total", "Memo cache lookup misses.", "counter",
		func(m memo.Stats) float64 { return float64(m.Misses) }),
	perCache("nutriserve_memo_rejections_total", "Window-overflow candidates rejected by TinyLFU admission.", "counter",
		func(m memo.Stats) float64 { return float64(m.Rejections) }),
	perCache("nutriserve_memo_sketch_resets_total", "Frequency-sketch aging resets (counters halved, doorkeeper cleared).", "counter",
		func(m memo.Stats) float64 { return float64(m.SketchResets) }),
	perCache("nutriserve_memo_capacity", "Memo cache capacity in entries (0: the cache stores nothing).", "gauge",
		func(m memo.Stats) float64 { return float64(m.Capacity) }),
	perCache("nutriserve_memo_entries", "Entries currently resident in the memo cache.", "gauge",
		func(m memo.Stats) float64 { return float64(m.Entries) }),
	// Derived from the same snapshot as the counters above, so
	// dashboards and loadgen get the ratio without a PromQL quotient.
	perCache("nutriserve_memo_hit_ratio", "Lifetime hit ratio, hits/(hits+misses), computed at scrape.", "gauge",
		func(m memo.Stats) float64 { return m.HitRate() }),
	perCache("nutriserve_memo_shards", "Memo cache shard count.", "gauge",
		func(m memo.Stats) float64 { return float64(m.Shards) }),

	scalar("nutriserve_match_pool_gets_total", "Scoring-arena checkouts: one per pooled ranking query or pinned session.", "counter",
		func(st *StatsResponse) any { return float64(st.Matcher.PoolGets) }),
	scalar("nutriserve_match_pool_misses_total", "Arena checkouts that allocated instead of reusing a pooled arena.", "counter",
		func(st *StatsResponse) any { return float64(st.Matcher.PoolMisses) }),
	scalar("nutriserve_match_probe_terms_total", "Update terms scored by candidate probes of the posting list instead of a full walk.", "counter",
		func(st *StatsResponse) any { return float64(st.Matcher.AdaptiveProbeTerms) }),
	scalar("nutriserve_match_prune_compactions_total", "Candidate-set compaction passes run by the pruned engine.", "counter",
		func(st *StatsResponse) any { return float64(st.Matcher.PruneCompactions) }),
	scalar("nutriserve_match_prune_docs_dropped_total", "Candidates retired by the exact bar tests (compaction and final selection).", "counter",
		func(st *StatsResponse) any { return float64(st.Matcher.PruneDocsDropped) }),
	scalar("nutriserve_match_prune_gather_exits_total", "Queries whose gather phase ended early (gather-to-update transition).", "counter",
		func(st *StatsResponse) any { return float64(st.Matcher.PruneGatherExits) }),
	scalar("nutriserve_match_prune_postings_avoided_total", "Posting entries never walked thanks to probing, skipping, or early exit.", "counter",
		func(st *StatsResponse) any { return float64(st.Matcher.PrunePostingsAvoided) }),
	scalar("nutriserve_match_prune_terms_skipped_total", "Scheduled terms skipped outright (empty candidate set).", "counter",
		func(st *StatsResponse) any { return float64(st.Matcher.PruneTermsSkipped) }),
	scalar("nutriserve_match_ranks_total", "Ranking queries run by the scoring engine, pooled or on a pinned session.", "counter",
		func(st *StatsResponse) any { return float64(st.Matcher.Ranks) }),
	scalar("nutriserve_match_docs", "Documents (food descriptions) in the live scoring index.", "gauge",
		func(st *StatsResponse) any { return float64(st.Matcher.Docs) }),
	scalar("nutriserve_match_posting_entries", "Total posting entries in the live scoring index.", "gauge",
		func(st *StatsResponse) any { return float64(st.Matcher.PostingEntries) }),
	scalar("nutriserve_match_vocab_size", "Distinct terms in the live scoring index's vocabulary.", "gauge",
		func(st *StatsResponse) any { return float64(st.Matcher.VocabSize) }),

	scalar("nutriserve_env_checkouts_total", "Worker-environment checkouts: one per phrase estimate, recipe or batch worker.", "counter",
		func(st *StatsResponse) any { return st.Env.Checkouts }),
	scalar("nutriserve_env_created_total", "Worker environments ever created (free-list misses).", "counter",
		func(st *StatsResponse) any { return st.Env.Created }),
	scalar("nutriserve_env_phrases_total", "Phrases estimated on worker environments.", "counter",
		func(st *StatsResponse) any { return st.Env.Phrases }),

	scalar("nutriserve_db_foods", "Foods in the live composition table.", "gauge",
		func(st *StatsResponse) any { return st.DB.Foods }),
	{"nutriserve_db_snapshot_gen", "Cache-invalidation generation of the live database snapshot; each reload or unit-statistics pass adds one.", "gauge", "source",
		func(st *StatsResponse) []sample { return []sample{{st.DB.Source, st.DB.Gen}} }},
	{"nutriserve_db_snapshot_version", "Version of the live database snapshot; each reload adds one.", "gauge", "source",
		func(st *StatsResponse) []sample { return []sample{{st.DB.Source, st.DB.Version}} }},

	scalar("nutriserve_runtime_gc_cycles_total", "Completed GC cycles.", "counter",
		func(st *StatsResponse) any { return st.Runtime.NumGC }),
	scalar("nutriserve_runtime_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", "counter",
		func(st *StatsResponse) any { return st.Runtime.GCPauseTotalMs / 1000 }),
	scalar("nutriserve_runtime_mallocs_total", "Heap objects allocated.", "counter",
		func(st *StatsResponse) any { return st.Runtime.Mallocs }),
	scalar("nutriserve_runtime_total_alloc_bytes", "Bytes allocated on the heap over the process lifetime.", "counter",
		func(st *StatsResponse) any { return st.Runtime.TotalAllocBytes }),
	scalar("nutriserve_runtime_goroutines", "Goroutines that currently exist.", "gauge",
		func(st *StatsResponse) any { return st.Runtime.Goroutines }),
	scalar("nutriserve_runtime_heap_alloc_bytes", "Live heap bytes.", "gauge",
		func(st *StatsResponse) any { return st.Runtime.HeapAllocBytes }),
	scalar("nutriserve_runtime_heap_inuse_bytes", "Heap bytes in in-use spans.", "gauge",
		func(st *StatsResponse) any { return st.Runtime.HeapInuseBytes }),
}
