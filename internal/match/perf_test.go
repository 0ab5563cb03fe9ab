package match

// Steady-state performance pins for the interned engine. The CI perf gate
// (cmd/benchgate via make bench-json) tracks BenchmarkMatchName and
// BenchmarkRank; TestWarmPathZeroAllocs turns the headline claim — zero
// allocations per query once the arena pool is warm — into a hard test
// so an accidental allocation fails fast, not just in nightly benchstat.

import (
	"fmt"
	"testing"

	"nutriprofile/internal/usda"
)

// benchQueries exercise multi-word phrases, entity folding, negation
// rewriting and raw-provision ties against the seed database.
var benchQueries = []Query{
	{Name: "low fat sour cream"},
	{Name: "unsalted butter"},
	{Name: "apple"},
	{Name: "chicken breast", State: "roasted"},
	{Name: "tomato paste"},
}

func BenchmarkMatchName(b *testing.B) {
	m := NewDefault(usda.Seed())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.MatchName("low fat sour cream"); !ok {
			b.Fatal("no match")
		}
	}
}

func BenchmarkRank(b *testing.B) {
	m := NewDefault(usda.Seed())
	var buf []Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.RankInto(benchQueries[i%len(benchQueries)], 10, buf)
		if len(buf) == 0 {
			b.Fatal("no results")
		}
	}
}

func BenchmarkRankExplain(b *testing.B) {
	// The eager-Matched configuration dbtool explain output uses: shows
	// what lazy materialization saves the default path.
	opts := DefaultOptions()
	opts.ExplainMatched = true
	m := New(usda.Seed(), opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rs := m.Rank(benchQueries[i%len(benchQueries)], 10); len(rs) == 0 {
			b.Fatal("no results")
		}
	}
}

func BenchmarkRankLargeDB(b *testing.B) {
	m := NewDefault(usda.Merged(7500, 3))
	var buf []Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.RankInto(Query{Name: "golden harvest beans"}, 10, buf)
	}
}

// longPostingQueries are the pruning engine's target workload: names
// and folded entities that drag stop-word-like terms ("raw", "whole",
// "with salt") whose posting lists span hundreds-to-thousands of
// documents at SR26 scale. The mix covers the three pruning wins:
// heavy terms inside the anchor (merged gather+score), a rare anchor
// with a heavy folded state (adaptive candidate probing), and
// many-term names (gather-exit + bar compaction).
var longPostingQueries = []Query{
	{Name: "chicken raw"},
	{Name: "raw whole milk"},
	{Name: "tomato paste", State: "raw"},
	{Name: "golden harvest beans", State: "frozen"},
	{Name: "whole raw cream cheese with salt"},
	{Name: "quail", State: "raw"},
}

// benchRankEngines runs one query set at k ∈ {1, 10}. The "pruned/"
// name segment is kept so the nightly bench gate can keep comparing
// these rows against HEAD~1 and the recorded BENCH_match.json.
func benchRankEngines(b *testing.B, db *usda.DB, queries []Query) {
	m := NewDefault(db)
	for _, k := range []int{1, 10} {
		b.Run(fmt.Sprintf("pruned/k=%d", k), func(b *testing.B) {
			var buf []Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = m.RankInto(queries[i%len(queries)], k, buf)
				if len(buf) == 0 {
					b.Fatal("no results")
				}
			}
		})
	}
}

// BenchmarkRankCold is the cache-miss ranking cost on the realistic
// query mix — the per-phrase price every cold batch pays — at seed and
// SR26 scale.
func BenchmarkRankCold(b *testing.B) {
	for _, sc := range []struct {
		name string
		db   *usda.DB
	}{{"seed", usda.Seed()}, {"sr26", usda.Merged(7500, 3)}} {
		b.Run(sc.name, func(b *testing.B) { benchRankEngines(b, sc.db, benchQueries) })
	}
}

// BenchmarkRankLongPostings is BenchmarkRankCold on the long-posting
// workload the pruned engine exists for.
func BenchmarkRankLongPostings(b *testing.B) {
	for _, sc := range []struct {
		name string
		db   *usda.DB
	}{{"seed", usda.Seed()}, {"sr26", usda.Merged(7500, 3)}} {
		b.Run(sc.name, func(b *testing.B) { benchRankEngines(b, sc.db, longPostingQueries) })
	}
}

func TestWarmPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	m := NewDefault(usda.Seed())
	var buf []Result
	// Warm the arena pool and grow every scratch slice to steady state.
	for _, q := range benchQueries {
		buf = m.RankInto(q, 10, buf)
		if _, ok := m.Match(q); !ok {
			t.Fatalf("no match for %+v", q)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, q := range benchQueries {
			buf = m.RankInto(q, 10, buf)
			m.Match(q)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Match/RankInto allocated %.1f times per run, want 0", allocs)
	}
}
