package match

// Differential suite for the candidate-pruned ranking engine.
// rankExhaustive below is the executable specification: every test here
// demands a reflect.DeepEqual-identical []Result from Matcher.Rank and
// from the spec on the same matcher — same scores, same tie-breaks,
// same Matched materialization, same slice nil-ness — across golden
// corpora, randomized databases, fuzzed queries, and the full
// SR26-scale NER workload. A pruning bug cannot hide behind "close
// enough": one divergent cell fails the suite.

import (
	"math/rand"
	"reflect"
	"testing"

	"nutriprofile/internal/ner"
	"nutriprofile/internal/recipedb"
	"nutriprofile/internal/usda"
)

// rankExhaustive is the straight-line spec engine: a gather pass over
// the anchor posting lists, a full scoring pass over every scored
// term's posting list, then a full sort truncated to k. No early
// termination, no adaptive lookups, no bounded heap — every equality
// is trivially exact. It scores into its own per-call counters and a
// fresh arena, sharing only query preparation (arena.prepare), the
// total order (sortCands) and Result materialization with production.
func rankExhaustive(m *Matcher, q Query, k int) []Result {
	a := new(arena)
	if !a.prepare(m, q) {
		return nil
	}

	// Gather-and-mark pass over the anchor terms' posting lists: under
	// NameAnchoring, STATE/TEMP/DF words may strengthen a match but
	// never create one. slot maps a marked document to its counters.
	slot := map[int32]int{}
	var touched []int32
	for _, t := range a.anchorIDs {
		for _, d := range m.postDocs[m.postOff[t]:m.postOff[t+1]] {
			if _, ok := slot[d]; !ok {
				slot[d] = len(touched)
				touched = append(touched, d)
			}
		}
	}

	// Scoring pass: every scored term contributes its posting list to
	// the marked documents' counters.
	inter := make([]int32, len(touched))
	pri := make([]int32, len(touched))
	for _, t := range a.ids {
		off, end := m.postOff[t], m.postOff[t+1]
		pris := m.postPri[off:end]
		for j, d := range m.postDocs[off:end] {
			if i, ok := slot[d]; ok {
				inter[i]++
				pri[i] += pris[j]
			}
		}
	}

	// Score, filter, order everything, keep the first k.
	var sel []cand
	scoredLen := float64(a.scoredLen)
	for i, d := range touched {
		var score float64
		if m.opts.Metric == VanillaJaccard {
			score = float64(inter[i]) / (scoredLen + float64(m.docLen(d)) - float64(inter[i]))
		} else {
			score = float64(inter[i]) / scoredLen
		}
		if score < m.opts.MinScore {
			continue
		}
		sel = append(sel, cand{score: score, pri: pri[i], doc: d, raw: a.rawEligible && m.hasRaw[d]})
	}
	sortCands(sel, m)
	if k > 0 && len(sel) > k {
		sel = sel[:k]
	}
	if len(sel) == 0 {
		return nil
	}
	out := make([]Result, len(sel))
	for i, c := range sel {
		m.fillResult(a, c, &out[i])
	}
	return out
}

// diffCell compares one (query, k) cell: the production engine against
// the exhaustive spec on the same matcher.
func diffCell(t testing.TB, m *Matcher, q Query, k int) {
	t.Helper()
	got := m.Rank(q, k)
	want := rankExhaustive(m, q, k)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pruned diverged from exhaustive spec: q=%+v k=%d opts=%+v\n  pruned %s\n  spec   %s",
			q, k, m.opts, renderResults(got), renderResults(want))
	}
}

var pruneKs = []int{0, 1, 3, 10}

// TestPruneDifferentialGolden sweeps the same grid the interning golden
// test uses — every option set (both metrics × all 2³ heuristic
// ablations × the strict-MinScore case) × the derived + adversarial
// query corpus × k ∈ {0,1,3,10} — but pits the pruned engine against
// the exhaustive spec instead of the map reference.
func TestPruneDifferentialGolden(t *testing.T) {
	db := usda.Seed()
	corpus := goldenCorpus(db)
	cells := 0
	for _, opts := range goldenOptionSets() {
		m := New(db, opts)
		for _, q := range corpus {
			for _, k := range pruneKs {
				diffCell(t, m, q, k)
				cells++
			}
		}
	}
	t.Logf("compared %d (options × query × k) cells", cells)
}

// pruneVocab is deliberately tiny so random descriptions collide hard:
// shared terms, duplicate word sets, score ties, and "raw" both as a
// description word (raw-provision bonus) and a query word (bonus
// suppression) all occur constantly.
var pruneVocab = []string{
	"oil", "olive", "butter", "salt", "milk", "whole", "raw", "chicken",
	"breast", "cheese", "cream", "tomato", "paste", "beans", "frozen",
	"dried", "wheat", "flour", "sugar", "brown", "egg", "white", "corn",
	"syrup", "apple", "juice", "pepper", "red", "green", "fat", "free", "low",
}

// randomFoodDB builds a synthetic database of n comma-term descriptions
// drawn from pruneVocab. Every structural property the tie-break chain
// depends on — first-term priorities, hasRaw, duplicate descriptions —
// arises naturally from the collisions.
func randomFoodDB(rng *rand.Rand, n int) *usda.DB {
	foods := make([]usda.Food, n)
	for i := range foods {
		desc := ""
		for term := 0; term <= rng.Intn(3); term++ {
			if term > 0 {
				desc += ", "
			}
			for w := 0; w <= rng.Intn(3); w++ {
				if w > 0 {
					desc += " "
				}
				desc += pruneVocab[rng.Intn(len(pruneVocab))]
			}
		}
		foods[i] = usda.Food{NDB: 90000 + i, Desc: desc}
	}
	return usda.MustNewDB(foods)
}

// randomQuery assembles a query from the same vocabulary plus an
// occasional out-of-vocabulary token, with folded entities appearing at
// the same rates the NER front-end produces them.
func randomQuery(rng *rand.Rand) Query {
	word := func() string {
		if rng.Intn(12) == 0 {
			return "qzxv"
		}
		return pruneVocab[rng.Intn(len(pruneVocab))]
	}
	name := word()
	for i := 0; i < rng.Intn(4); i++ {
		name += " " + word()
	}
	q := Query{Name: name}
	if rng.Intn(3) == 0 {
		q.State = word()
	}
	if rng.Intn(6) == 0 {
		q.Temp = word()
	}
	if rng.Intn(6) == 0 {
		q.DryFresh = word()
	}
	return q
}

// TestPruneMetamorphicRandom runs the engine pair over randomized
// databases and queries: every option set, both metrics, all k values.
// Distinct seeds per database keep the sweep reproducible.
func TestPruneMetamorphicRandom(t *testing.T) {
	dbs, queries := 20, 30
	if testing.Short() {
		dbs = 6
	}
	cells := 0
	for seed := 0; seed < dbs; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		db := randomFoodDB(rng, 40+rng.Intn(160))
		qs := make([]Query, queries)
		for i := range qs {
			qs[i] = randomQuery(rng)
		}
		for _, opts := range goldenOptionSets() {
			m := New(db, opts)
			for _, q := range qs {
				for _, k := range pruneKs {
					diffCell(t, m, q, k)
					cells++
				}
			}
		}
	}
	t.Logf("compared %d randomized cells across %d databases", cells, dbs)
}

// FuzzPruneDifferential lets the fuzzer drive both the database shape
// and the query text. Arbitrary name/state strings exercise the
// normalization front-end (unicode, punctuation, negations) on top of
// the randomized index, and the option mask rotates the metric and
// heuristic ablations per input.
func FuzzPruneDifferential(f *testing.F) {
	f.Add(int64(1), "raw whole milk", "", uint8(10))
	f.Add(int64(2), "tomato paste", "raw", uint8(1))
	f.Add(int64(3), "qzxv florp", "frozen", uint8(0))
	f.Add(int64(4), "no salt added butter", "dried", uint8(3))
	f.Add(int64(5), "½ apple, raw", "raw", uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, name, state string, bits uint8) {
		rng := rand.New(rand.NewSource(seed))
		db := randomFoodDB(rng, 20+rng.Intn(120))
		opts := Options{
			Metric:             ModifiedJaccard,
			RawProvision:       bits&1 != 0,
			PriorityResolution: bits&2 != 0,
			NameAnchoring:      bits&4 != 0,
			ExplainMatched:     bits&8 != 0,
			MinScore:           1e-9,
		}
		if bits&16 != 0 {
			opts.Metric = VanillaJaccard
		}
		if bits&32 != 0 {
			opts.MinScore = 0.5
		}
		m := New(db, opts)
		k := int(bits >> 6) // 0..3: all, 1, 2, 3
		for _, q := range []Query{
			{Name: name, State: state},
			{Name: name},
			randomQuery(rng),
		} {
			diffCell(t, m, q, k)
			diffCell(t, m, q, 10)
		}
	})
}

// TestPruneGoldenSR26Corpus is the production-shaped differential: the
// full SR26-scale merged database against every distinct query the NER
// front-end extracts from the generated recipe corpus — the same
// workload the cold-batch experiments measure. -short trades scale for
// speed but keeps the same structure.
func TestPruneGoldenSR26Corpus(t *testing.T) {
	recipes, synth := 20000, 7500
	if testing.Short() {
		recipes, synth = 2000, 800
	}
	db := usda.Merged(synth, 3)
	corpus, err := recipedb.Generate(recipedb.Config{NumRecipes: recipes, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}

	// Dedupe on the extracted query, not the raw phrase: quantities make
	// most phrases unique but collapse to the same ranking input.
	seen := map[Query]struct{}{}
	var queries []Query
	for _, p := range corpus.Phrases() {
		ex := ner.Extract(ner.RuleTagger{}, p)
		if ex.Name == "" {
			continue
		}
		q := Query{Name: ex.Name, State: ex.State, Temp: ex.Temp, DryFresh: ex.DryFresh}
		if _, dup := seen[q]; dup {
			continue
		}
		seen[q] = struct{}{}
		queries = append(queries, q)
	}

	cells := 0
	for _, metric := range []Metric{ModifiedJaccard, VanillaJaccard} {
		opts := DefaultOptions()
		opts.Metric = metric
		m := New(db, opts)
		for _, q := range queries {
			for _, k := range []int{1, 10} {
				diffCell(t, m, q, k)
				cells++
			}
		}
	}
	t.Logf("compared %d cells: %d NER queries over %d foods", cells, len(queries), db.Len())
}

// TestPruneCountersAccount pins the observability contract: the engine
// reports its work avoidance through MatcherStats. The long-posting
// workload must trigger every counter class the /metrics families
// export.
func TestPruneCountersAccount(t *testing.T) {
	m := New(usda.Merged(2000, 3), DefaultOptions())
	for _, q := range longPostingQueries {
		for _, k := range []int{1, 10} {
			if rs := m.Rank(q, k); len(rs) == 0 {
				t.Fatalf("no results for %+v", q)
			}
		}
	}

	st := m.Stats()
	for name, v := range map[string]uint64{
		"PrunePostingsAvoided": st.PrunePostingsAvoided,
		"PruneDocsDropped":     st.PruneDocsDropped,
		"PruneGatherExits":     st.PruneGatherExits,
		"AdaptiveProbeTerms":   st.AdaptiveProbeTerms,
	} {
		if v == 0 {
			t.Errorf("%s = 0 after the long-posting workload", name)
		}
	}
}
