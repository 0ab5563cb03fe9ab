package server

// Matcher-engine families for GET /metrics, appended after the memo
// families in the same hand-rendered 0.0.4 text format (see
// memo_metrics.go for why these are snapshotted at scrape time rather
// than registered). The prune counters expose the candidate-pruned
// ranking engine's work avoidance — postings never walked, candidates
// retired by the bar tests, gather→update transitions — so a ±10%
// regression in pruning effectiveness is visible on a dashboard long
// before it shows up as cold-batch latency. One MatcherStats snapshot
// per scrape; the families carry no labels (there is one matcher per
// snapshot).

import (
	"io"
	"strconv"

	"nutriprofile/internal/match"
)

// matchFamilies drives the exposition: counters first, then gauges,
// names sorted within each group for deterministic output.
var matchFamilies = []struct {
	name, help, typ string
	value           func(st match.MatcherStats) float64
}{
	{"nutriserve_match_pool_gets_total", "Scoring-arena checkouts (one per ranking query).", "counter",
		func(st match.MatcherStats) float64 { return float64(st.PoolGets) }},
	{"nutriserve_match_pool_misses_total", "Arena checkouts that allocated instead of reusing a pooled arena.", "counter",
		func(st match.MatcherStats) float64 { return float64(st.PoolMisses) }},
	{"nutriserve_match_probe_terms_total", "Update terms scored by candidate probes of the posting list instead of a full walk.", "counter",
		func(st match.MatcherStats) float64 { return float64(st.AdaptiveProbeTerms) }},
	{"nutriserve_match_prune_compactions_total", "Candidate-set compaction passes run by the pruned engine.", "counter",
		func(st match.MatcherStats) float64 { return float64(st.PruneCompactions) }},
	{"nutriserve_match_prune_docs_dropped_total", "Candidates retired by the exact bar tests (compaction and final selection).", "counter",
		func(st match.MatcherStats) float64 { return float64(st.PruneDocsDropped) }},
	{"nutriserve_match_prune_gather_exits_total", "Queries whose gather phase ended early (gather-to-update transition).", "counter",
		func(st match.MatcherStats) float64 { return float64(st.PruneGatherExits) }},
	{"nutriserve_match_prune_postings_avoided_total", "Posting entries never walked thanks to probing, skipping, or early exit.", "counter",
		func(st match.MatcherStats) float64 { return float64(st.PrunePostingsAvoided) }},
	{"nutriserve_match_prune_terms_skipped_total", "Scheduled terms skipped outright (empty candidate set).", "counter",
		func(st match.MatcherStats) float64 { return float64(st.PruneTermsSkipped) }},
	{"nutriserve_match_docs", "Documents (food descriptions) in the live scoring index.", "gauge",
		func(st match.MatcherStats) float64 { return float64(st.Docs) }},
	{"nutriserve_match_posting_entries", "Total posting entries in the live scoring index.", "gauge",
		func(st match.MatcherStats) float64 { return float64(st.PostingEntries) }},
	{"nutriserve_match_vocab_size", "Distinct terms in the live scoring index's vocabulary.", "gauge",
		func(st match.MatcherStats) float64 { return float64(st.VocabSize) }},
}

// writeMatchMetrics renders the matcher families from one stats
// snapshot.
func writeMatchMetrics(w io.Writer, st match.MatcherStats) error {
	buf := make([]byte, 0, 2048)
	for _, fam := range matchFamilies {
		buf = append(buf, "# HELP "...)
		buf = append(buf, fam.name...)
		buf = append(buf, ' ')
		buf = append(buf, fam.help...)
		buf = append(buf, "\n# TYPE "...)
		buf = append(buf, fam.name...)
		buf = append(buf, ' ')
		buf = append(buf, fam.typ...)
		buf = append(buf, '\n')
		buf = append(buf, fam.name...)
		buf = append(buf, ' ')
		buf = strconv.AppendFloat(buf, fam.value(st), 'g', -1, 64)
		buf = append(buf, '\n')
	}
	_, err := w.Write(buf)
	return err
}
