// Package core assembles the paper's full pipeline (Fig. 1): NER over
// ingredient phrases (§II-A), Modified-Jaccard description matching
// (§II-B), and unit matching with conversion-table and frequency
// fallbacks (§II-C), producing per-ingredient and per-recipe nutritional
// profiles as the sum of ingredient profiles.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"nutriprofile/internal/flight"
	"nutriprofile/internal/match"
	"nutriprofile/internal/memo"
	"nutriprofile/internal/ner"
	"nutriprofile/internal/nutrition"
	"nutriprofile/internal/pipeline"
	"nutriprofile/internal/units"
	"nutriprofile/internal/usda"
	"nutriprofile/internal/yield"
)

// UnitOrigin records how the pipeline obtained an ingredient's unit.
type UnitOrigin uint8

const (
	// UnitNone: no unit could be determined at all.
	UnitNone UnitOrigin = iota
	// UnitNER: the NER model tagged a UNIT token.
	UnitNER
	// UnitSize: the NER SIZE entity served as the unit (§II-C treats
	// small/medium/large as units).
	UnitSize
	// UnitSearched: recovered by scanning the phrase for known units
	// (§II-C: "we searched the ingredient phrase for known units").
	UnitSearched
	// UnitMostFrequent: the ingredient's most frequent corpus unit
	// (§II-C: "the most frequent unit for that particular ingredient").
	UnitMostFrequent
	// UnitDefaultRow: the food's first weight-table row, the final
	// fallback when no frequency data exists.
	UnitDefaultRow
)

func (o UnitOrigin) String() string {
	switch o {
	case UnitNER:
		return "ner"
	case UnitSize:
		return "size"
	case UnitSearched:
		return "searched"
	case UnitMostFrequent:
		return "most-frequent"
	case UnitDefaultRow:
		return "default-row"
	default:
		return "none"
	}
}

// GramsVia records how the unit was turned into grams.
type GramsVia uint8

const (
	// GramsNone: the unit never resolved to a gram weight.
	GramsNone GramsVia = iota
	// GramsWeightRow: an exact row of the food's weight table.
	GramsWeightRow
	// GramsConverted: reached through the volume/mass conversion tables
	// (§II-C: "we can add teaspoon as a unit since the ratio of volume of
	// a cup and a teaspoon is constant").
	GramsConverted
)

func (v GramsVia) String() string {
	switch v {
	case GramsWeightRow:
		return "weight-row"
	case GramsConverted:
		return "converted"
	default:
		return "none"
	}
}

// Options configures the Estimator; zero-value disables nothing. The
// Disable* switches exist for the ablation benchmarks.
type Options struct {
	// MaxGramsPerLine is the §II-C sanity threshold on quantity×unit
	// ("putting a threshold on the quantity per unit"): lines computing
	// heavier than this trigger quantity/unit re-pairing. Default 2500 g.
	MaxGramsPerLine float64
	// FuzzyMatch enables the typo-correction fallback: queries that find
	// no description are retried with out-of-vocabulary words corrected
	// to their closest vocabulary word (extension; see match.MatchFuzzy).
	FuzzyMatch bool
	// CacheSize bounds the estimator's two memoization levels: a
	// phrase-level cache (normalized phrase → full IngredientResult) and
	// a match-level cache (match.Query → description match). Estimation
	// is a pure function of phrase + options + frozen unit statistics,
	// so memoization never changes results; it only skips recomputation
	// for the "salt"/"olive oil" phrases that dominate real corpora.
	// 0 (the zero value) disables both caches. ObserveUnits invalidates
	// the phrase cache, since it changes the most-frequent-unit state.
	CacheSize int
	// CachePolicy selects the memo caches' eviction policy: PolicyLRU
	// (the zero value) or PolicyTinyLFU, which adds frequency-gated
	// admission so skewed production traffic keeps its hot head
	// resident through cold bulk scans (memo/tinylfu.go, DESIGN.md
	// §15). The policy can never change estimation results — only
	// which phrases stay cached — so it is a pure performance
	// ablation, threaded to the CLIs as -cache-policy.
	CachePolicy memo.Policy
	// DisableCoalescing turns off single-flight deduplication of
	// concurrent cache misses (see internal/flight). On by default when
	// caching is enabled; coalescing is a no-op for sequential callers,
	// so the switch exists for ablation benchmarks and as an escape
	// hatch. Meaningless when CacheSize == 0 — with no cache to land
	// results in, deduplicating the computation would not be observable.
	DisableCoalescing bool
	// Ablation switches.
	DisableConversion   bool
	DisablePhraseSearch bool
	DisableMostFrequent bool
	DisableDefaultRow   bool
	DisableRepair       bool
}

func (o *Options) fill() {
	if o.MaxGramsPerLine <= 0 {
		o.MaxGramsPerLine = 2500
	}
}

// Estimator is the end-to-end pipeline. Construct with New. A single
// Estimator is safe for concurrent use by any number of goroutines
// (EstimateIngredient, EstimateRecipe, EstimateBatch, EstimateRecipes,
// and even ObserveUnits may be called concurrently), provided the
// Tagger is itself concurrency-safe — the built-in RuleTagger and a
// trained ner.Model both are, since Tag only reads model state.
type Estimator struct {
	// snap is the live (database, matcher, version) snapshot; see
	// snapshot.go for the hot-swap protocol. Every request pins it once
	// and computes entirely against the pinned value.
	snap atomic.Pointer[Snapshot]
	// swapMu serializes snapshot writers (Install, ObserveUnits' gen
	// bump) so version/gen stay strictly monotonic. Readers never take it.
	swapMu sync.Mutex

	tagger ner.Tagger
	opts   Options

	// statsMu guards unitStats: ObserveUnits writes under the write
	// lock, the most-frequent-unit fallback reads under the read lock.
	statsMu sync.RWMutex
	// unitStats maps NDB → canonical unit → observation count, feeding
	// the most-frequent-unit fallback. Populated by ObserveUnits.
	unitStats map[int]map[string]int

	// Memoization (nil when Options.CacheSize == 0). Cached values are
	// shared across goroutines and treated as read-only.
	phraseCache *memo.Cache[IngredientResult]
	matchCache  *memo.Cache[matchHit]

	// flights coalesces concurrent phrase-cache misses on the same
	// normalized token stream: one pipeline pass runs, every waiter
	// shares its result. Sits below the cache — see estimateCached.
	flights flight.Group[IngredientResult]

	// shardState is the per-core sharded batch machinery: worker
	// environments, the phrase-hash slot partition with per-slot L1
	// caches, and the striped batched-flush stat aggregates (shard.go).
	shardState
}

// matchHit is the memoized outcome of one description-match query.
type matchHit struct {
	res match.Result
	ok  bool
}

// New builds an Estimator over a composition table with the given tagger.
// A nil tagger selects the rule-based baseline.
func New(db *usda.DB, tagger ner.Tagger, opts Options) (*Estimator, error) {
	if db == nil {
		return nil, errors.New("core: nil database")
	}
	return newEstimator(db, match.NewDefault(db), tagger, opts, "boot")
}

// NewWithIndex builds an Estimator whose matcher adopts a prebuilt
// scoring index (a baked DB image's) instead of re-indexing db — the
// nutriserve -db startup path. The index is structurally validated;
// source labels the snapshot's origin (e.g. the image path).
func NewWithIndex(db *usda.DB, tagger ner.Tagger, opts Options, idx *match.Index, source string) (*Estimator, error) {
	if db == nil {
		return nil, errors.New("core: nil database")
	}
	opts.fill()
	m, err := match.NewFromIndex(db, match.DefaultOptions(), idx)
	if err != nil {
		return nil, err
	}
	return newEstimator(db, m, tagger, opts, source)
}

func newEstimator(db *usda.DB, m *match.Matcher, tagger ner.Tagger, opts Options, source string) (*Estimator, error) {
	if tagger == nil {
		tagger = ner.RuleTagger{}
	}
	opts.fill()
	e := &Estimator{
		tagger:    tagger,
		opts:      opts,
		unitStats: map[int]map[string]int{},
	}
	e.snap.Store(&Snapshot{db: db, matcher: m, version: 1, gen: 0, source: source})
	if opts.CacheSize > 0 {
		e.phraseCache = memo.NewPolicy[IngredientResult](opts.CacheSize, memo.DefaultShards, opts.CachePolicy)
		e.matchCache = memo.NewPolicy[matchHit](opts.CacheSize, memo.DefaultShards, opts.CachePolicy)
	}
	e.shardState.init()
	return e, nil
}

// NewDefault builds an Estimator with the rule tagger and default options
// over the seed database.
func NewDefault() *Estimator {
	e, err := New(usda.Seed(), nil, Options{})
	if err != nil {
		panic(err) // unreachable: seed DB is non-nil
	}
	return e
}

// Matcher exposes the live snapshot's description matcher. Callers
// needing matcher+DB consistency should go through Current() instead.
func (e *Estimator) Matcher() *match.Matcher { return e.snap.Load().matcher }

// DB exposes the live snapshot's composition table.
func (e *Estimator) DB() *usda.DB { return e.snap.Load().db }

// IngredientResult is the pipeline output for one phrase.
type IngredientResult struct {
	Phrase     string
	Extraction ner.Extraction
	Match      match.Result
	Matched    bool // description match found (§II-B succeeded)
	Quantity   float64
	Unit       string // canonical unit, "" if unresolved
	UnitOrigin UnitOrigin
	GramsVia   GramsVia
	Grams      float64
	Profile    nutrition.Profile
	// Mapped reports full success: matched AND grams resolved — the
	// quantity Fig. 2 measures per recipe.
	Mapped bool
}

// RecipeResult aggregates a recipe.
type RecipeResult struct {
	Ingredients []IngredientResult
	Total       nutrition.Profile
	PerServing  nutrition.Profile
	Servings    int
	// MappedFraction is the share of ingredient lines fully mapped to a
	// nutritional profile — the x-axis of the paper's Fig. 2.
	MappedFraction float64
}

// EstimateIngredient runs the full pipeline over one phrase. With
// Options.CacheSize > 0 the result is memoized under the normalized
// (tokenized) phrase: two phrases with identical token streams share
// one cached computation. Returned results must be treated as
// read-only when caching is enabled — they are shared with every other
// caller that hits the same entry.
func (e *Estimator) EstimateIngredient(phrase string) IngredientResult {
	sc := pipeline.Get()
	defer pipeline.Put(sc)
	r, _ := e.estimateCached(e.pin(), phrase, sc, nil)
	return r
}

// estimateCached is EstimateIngredient on a caller-owned scratch: the
// batch workers hold one scratch for their whole shard instead of
// cycling the pool per phrase. The cache key is the normalized token
// stream (rendered in the scratch, probed without allocating), the exact
// input every downstream stage consumes. Its FNV-1a hash is computed
// once and reused for the cache shard, the flight shard, and the store
// — one pass over the key bytes instead of three.
//
// sess, when non-nil, is the worker's pinned match session; nil callers
// match through the pinned snapshot's pool-backed matcher entry points.
//
// v is the request's pinned read context. Cache stores go through
// PutHashGen with the generation captured at pin time, so a result
// computed against a snapshot that a concurrent Install/ObserveUnits
// has since retired is dropped instead of cached (snapshot.go).
//
// The second return is the phrase-cache key hash (0 when caching is
// off): the slot-L1 tier above stores it alongside the result so its
// hits can keep feeding the TinyLFU admission sketch (TouchHash)
// without re-normalizing the phrase.
func (e *Estimator) estimateCached(v view, phrase string, sc *pipeline.Scratch, sess *match.Session) (IngredientResult, uint64) {
	if e.phraseCache == nil {
		return e.estimateIngredient(v, phrase, sc, sess), 0
	}
	sc.Tokenize(phrase)
	key := sc.PhraseKey()
	h := memo.Hash(key)
	if r, ok := e.phraseCache.GetBytesHash(h, key); ok {
		// The cached computation is keyed on the token stream; only the
		// verbatim Phrase field can differ.
		r.Phrase = phrase
		return r, h
	}
	if e.opts.DisableCoalescing {
		r := e.estimateTokenized(v, phrase, sc, sess)
		// key still aliases the scratch (nothing downstream of Tokenize
		// touches the phrase-key buffer); materialize it only on this
		// miss path. Scrub the verbatim phrase from the stored copy: the
		// cache is keyed on the token stream, and the serving layer may
		// pass phrases whose backing bytes it reuses after the call.
		stored := r
		stored.Phrase = ""
		e.phraseCache.PutHashGen(h, string(key), stored, v.phraseGen)
		return r, h
	}
	// Coalesce concurrent misses on the same token stream: under load,
	// the same phrase is often requested again while the first pipeline
	// pass is still running, and the cache can only absorb repeats after
	// a result lands. The leader computes, stores, and shares; waiters
	// block on its flight instead of redoing the pass. The shared value
	// carries no Phrase for the same reason the stored one doesn't.
	r, _ := e.flights.DoHash(h, key, func() IngredientResult {
		r := e.estimateTokenized(v, phrase, sc, sess)
		r.Phrase = ""
		e.phraseCache.PutHashGen(h, string(key), r, v.phraseGen)
		return r
	})
	r.Phrase = phrase
	return r, h
}

// FlightStats reports the single-flight coalescing counters: how many
// cache misses led a pipeline pass and how many shared another caller's
// in-flight result. Zero everywhere when caching or coalescing is off.
func (e *Estimator) FlightStats() flight.Stats { return e.flights.Stats() }

// EstimateIngredientScratch is EstimateIngredient on a caller-owned
// scratch, for callers (like the serving layer) that pool their own
// pipeline scratches across requests. The phrase may be backed by a
// caller-reused buffer: neither the caches nor the shared flight
// results retain it past the call. The same read-only contract as
// EstimateIngredient applies to the returned result.
func (e *Estimator) EstimateIngredientScratch(phrase string, sc *pipeline.Scratch) IngredientResult {
	r, _ := e.estimateCached(e.pin(), phrase, sc, nil)
	return r
}

// matchQuery runs the configured description match, memoized when the
// match cache is enabled. Match results depend on the pinned snapshot's
// matcher, so stores carry the generation captured at pin time and a
// swap purges the cache. The key hash is computed once and shared by
// the shard probe and the store.
func (e *Estimator) matchQuery(v view, q match.Query, sc *pipeline.Scratch, sess *match.Session) (match.Result, bool) {
	if e.matchCache == nil {
		return e.rawMatch(v, q, sess)
	}
	key := sc.JoinKey(q.Name, q.State, q.Temp, q.DryFresh)
	kh := memo.Hash(key)
	if h, ok := e.matchCache.GetBytesHash(kh, key); ok {
		return h.res, h.ok
	}
	res, ok := e.rawMatch(v, q, sess)
	e.matchCache.PutHashGen(kh, string(key), matchHit{res: res, ok: ok}, v.matchGen)
	return res, ok
}

// rawMatch dispatches to the worker's pinned session when one is given,
// otherwise to the pinned snapshot's pool-backed matcher entry points.
func (e *Estimator) rawMatch(v view, q match.Query, sess *match.Session) (match.Result, bool) {
	if sess != nil {
		if e.opts.FuzzyMatch {
			return sess.MatchFuzzy(q)
		}
		return sess.Match(q)
	}
	if e.opts.FuzzyMatch {
		return v.snap.matcher.MatchFuzzy(q)
	}
	return v.snap.matcher.Match(q)
}

// estimateIngredient is the uncached pipeline.
func (e *Estimator) estimateIngredient(v view, phrase string, sc *pipeline.Scratch, sess *match.Session) IngredientResult {
	sc.Tokenize(phrase)
	return e.estimateTokenized(v, phrase, sc, sess)
}

// estimateTokenized runs the pipeline over the phrase already tokenized
// into sc (by estimateCached or estimateIngredient). Everything resolves
// against v's snapshot: matcher and food lookup can never mix databases.
func (e *Estimator) estimateTokenized(v view, phrase string, sc *pipeline.Scratch, sess *match.Session) IngredientResult {
	res := IngredientResult{Phrase: phrase}
	res.Extraction = sc.Extract(e.tagger)
	if res.Extraction.Name == "" {
		return res
	}

	q := match.Query{
		Name:     res.Extraction.Name,
		State:    res.Extraction.State,
		Temp:     res.Extraction.Temp,
		DryFresh: res.Extraction.DryFresh,
	}
	m, ok := e.matchQuery(v, q, sc, sess)
	if !ok {
		return res
	}
	res.Match, res.Matched = m, true
	food, _ := v.snap.db.ByNDB(m.NDB)

	res.Quantity = e.quantity(res.Extraction.Quantity)
	e.resolveUnit(&res, food, sc)
	if res.Grams > 0 {
		res.Profile = food.Per100g.ForGrams(res.Grams)
		res.Mapped = true
	}
	return res
}

// quantity normalizes the extracted quantity; missing or unparseable
// quantities default to 1, the bare-count reading.
func (e *Estimator) quantity(raw string) float64 {
	if raw == "" {
		return 1
	}
	v, err := units.ParseQuantity(raw)
	if err != nil || v <= 0 {
		return 1
	}
	return v
}

// resolveUnit runs the §II-C fallback chain, filling Unit, UnitOrigin,
// GramsVia and Grams. The phrase's tokens are already in sc; entity
// fields resolve through their recorded first-word index and the
// scratch's memoized unit lookups instead of re-tokenizing.
func (e *Estimator) resolveUnit(res *IngredientResult, food *usda.Food, sc *pipeline.Scratch) {
	try := func(unit string, origin UnitOrigin, qty float64) bool {
		grams, via := e.gramsFor(food, unit, qty)
		if grams <= 0 {
			return false
		}
		if grams > e.opts.MaxGramsPerLine {
			if e.opts.DisableRepair {
				return false
			}
			// §II-C threshold: implausibly heavy lines ("500 cups") are
			// re-paired by scanning for an adjacent quantity+unit pair.
			if g2, u2, q2, ok := e.repair(food, sc); ok && g2 <= e.opts.MaxGramsPerLine {
				res.Unit, res.UnitOrigin, res.GramsVia = u2, UnitSearched, GramsWeightRow
				res.Quantity, res.Grams = q2, g2
				if _, exact := food.GramsForUnit(u2); !exact {
					res.GramsVia = GramsConverted
				}
				return true
			}
			return false
		}
		res.Unit, res.UnitOrigin, res.GramsVia = unit, origin, via
		res.Grams = grams
		return true
	}

	// entityUnit resolves an entity field as a unit. Normalize takes the
	// field's first alphabetic word, which is exactly the token whose
	// index AssembleScratch recorded — so the memoized per-token lookup
	// gives the identical result without re-tokenizing the field.
	entityUnit := func(l ner.Label) (string, bool) {
		if idx := sc.NER.FirstWordIndex(l); idx >= 0 {
			return sc.UnitFor(idx)
		}
		return "", false
	}

	// 1. The NER UNIT entity.
	if res.Extraction.Unit != "" {
		if name, known := entityUnit(ner.Unit); known {
			if try(name, UnitNER, res.Quantity) {
				return
			}
		}
	}
	// 2. The NER SIZE entity doubles as a unit (§II-C).
	if res.Extraction.Size != "" {
		if name, known := entityUnit(ner.Size); known {
			if try(name, UnitSize, res.Quantity) {
				return
			}
		}
	}
	// 3. Phrase scan for the first token resolving to a known unit
	// (units.FindInPhrase, through the scratch's memoized lookups).
	if !e.opts.DisablePhraseSearch {
		for i := range sc.Tokens() {
			name, known := sc.UnitFor(i)
			if !known {
				continue
			}
			if try(name, UnitSearched, res.Quantity) {
				return
			}
			break // first known unit only, as FindInPhrase returns
		}
	}
	// 4. Most frequent unit for this ingredient.
	if !e.opts.DisableMostFrequent {
		if unit := e.mostFrequentUnit(food.NDB); unit != "" {
			if try(unit, UnitMostFrequent, res.Quantity) {
				return
			}
		}
	}
	// 5. The food's first RESOLVABLE weight row (SR rows with unit
	// spellings outside the alias inventory are skipped).
	if !e.opts.DisableDefaultRow {
		for i := range food.Weights {
			name, known := food.WeightUnit(i)
			if !known {
				continue
			}
			if try(name, UnitDefaultRow, res.Quantity) {
				return
			}
			break // first resolvable row only, per §II-C consistency
		}
	}
}

// gramsFor turns (unit, qty) into grams for a food: exact weight row
// first, then the conversion lattice.
func (e *Estimator) gramsFor(food *usda.Food, unit string, qty float64) (float64, GramsVia) {
	if gpu, ok := food.GramsForUnit(unit); ok {
		return qty * gpu, GramsWeightRow
	}
	if e.opts.DisableConversion {
		return 0, GramsNone
	}
	kind, err := units.KindOf(unit)
	if err != nil {
		return 0, GramsNone
	}
	switch kind {
	case units.Mass:
		g, err := units.Grams(qty, unit)
		if err != nil {
			return 0, GramsNone
		}
		return g, GramsConverted
	case units.Volume:
		// Bridge through any volume row in the food's weight table
		// (§II-C: add teaspoon for butter via the cup row).
		for i, w := range food.Weights {
			name, known := food.WeightUnit(i)
			if !known {
				continue
			}
			if k, err := units.KindOf(name); err != nil || k != units.Volume {
				continue
			}
			ratio, err := units.Ratio(unit, name)
			if err != nil {
				continue
			}
			return qty * ratio * w.GramsPerOne(), GramsConverted
		}
	}
	return 0, GramsNone
}

// repair scans for adjacent (quantity, unit) token pairs and returns the
// first pair that yields a plausible gram weight — the semi-automated
// recovery for dual-unit phrases like "500 g or 1 cup".
func (e *Estimator) repair(food *usda.Food, sc *pipeline.Scratch) (grams float64, unit string, qty float64, ok bool) {
	tokens := sc.Tokens()
	for i := 0; i+1 < len(tokens); i++ {
		q, err := units.ParseQuantity(tokens[i])
		if err != nil || q <= 0 {
			continue
		}
		name, known := sc.UnitFor(i + 1)
		if !known {
			continue
		}
		g, via := e.gramsFor(food, name, q)
		if via != GramsNone && g > 0 && g <= e.opts.MaxGramsPerLine {
			return g, name, q, true
		}
	}
	return 0, "", 0, false
}

// mostFrequentUnit returns the modal observed unit for a food, or "".
func (e *Estimator) mostFrequentUnit(ndb int) string {
	e.statsMu.RLock()
	defer e.statsMu.RUnlock()
	counts := e.unitStats[ndb]
	best, bestN := "", 0
	for u, n := range counts {
		if n > bestN || (n == bestN && u < best) {
			best, bestN = u, n
		}
	}
	return best
}

// ObserveUnits performs the corpus statistics pass behind the
// most-frequent-unit fallback: phrases whose units resolve directly
// (NER/size/search) contribute counts keyed by matched food.
//
// It is safe to call concurrently with estimation (and with itself):
// the pass runs in two phases — estimate every phrase (in parallel,
// bypassing the phrase cache), then apply the counts under the write
// lock. The contributing set is identical to a sequential pass because
// the NER/size/search fallbacks never read the frequency map. After the
// counts land, the phrase cache is purged, since entries resolved via
// the most-frequent-unit fallback may now be stale.
func (e *Estimator) ObserveUnits(phrases []string) {
	type obs struct {
		ndb  int
		unit string
	}
	v := e.pin()
	observations := make([]obs, len(phrases))
	e.forEachIndex(v.snap, len(phrases), 0, func(i int, w *worker) {
		// Bypass the phrase cache: a cached most-frequent-unit result
		// never contributes, and observation must not pollute the cache
		// with entries that this very pass is about to invalidate.
		r := e.estimateIngredient(v, phrases[i], w.env.sc, w.env.sess)
		if !r.Matched || r.Unit == "" {
			return
		}
		switch r.UnitOrigin {
		case UnitNER, UnitSize, UnitSearched:
			observations[i] = obs{ndb: r.Match.NDB, unit: r.Unit}
		}
	})

	e.statsMu.Lock()
	for _, o := range observations {
		if o.unit == "" {
			continue
		}
		m := e.unitStats[o.ndb]
		if m == nil {
			m = map[string]int{}
			e.unitStats[o.ndb] = m
		}
		m[o.unit]++
	}
	e.statsMu.Unlock()

	if e.phraseCache != nil {
		// Unit statistics changed, so cached most-frequent-unit results
		// are stale. Retire the current generation the same way Install
		// does: publish a snapshot copy with gen bumped (same db/matcher),
		// then purge — the publish-before-purge order plus the gen-guarded
		// stores make the invalidation race-free even against estimates
		// running concurrently with this pass (snapshot.go). The slot L1s
		// (shard.go) are gen-stamped, so they clear on next claim.
		e.swapMu.Lock()
		ns := *e.snap.Load()
		ns.gen++
		e.snap.Store(&ns)
		e.phraseCache.Purge()
		e.swapMu.Unlock()
	}
}

// EstimateRecipe runs the pipeline over a recipe's ingredient section.
func (e *Estimator) EstimateRecipe(phrases []string, servings int) (RecipeResult, error) {
	return e.EstimateRecipeConcurrent(phrases, servings, 1)
}

// EstimateRecipeConcurrent is EstimateRecipe with the ingredient lines
// estimated by a worker pool (see EstimateBatchWorkers for worker
// semantics). The result is identical to the sequential path.
func (e *Estimator) EstimateRecipeConcurrent(phrases []string, servings, workers int) (RecipeResult, error) {
	if len(phrases) == 0 {
		return RecipeResult{}, errors.New("core: recipe has no ingredients")
	}
	if servings <= 0 {
		return RecipeResult{}, fmt.Errorf("core: invalid servings %d", servings)
	}
	return aggregateRecipe(e.EstimateBatchWorkers(phrases, workers), servings), nil
}

// aggregateRecipe sums per-ingredient results into a RecipeResult.
func aggregateRecipe(ingredients []IngredientResult, servings int) RecipeResult {
	out := RecipeResult{Servings: servings, Ingredients: ingredients}
	mapped := 0
	for i := range ingredients {
		out.Total = out.Total.Add(ingredients[i].Profile)
		if ingredients[i].Mapped {
			mapped++
		}
	}
	out.PerServing = out.Total.Scale(1 / float64(servings))
	out.MappedFraction = float64(mapped) / float64(len(ingredients))
	return out
}

// EstimateRecipeCooked runs EstimateRecipe and then applies the
// cooking-yield correction of the given method to the totals — the
// Bognár-style adjustment the paper cites as the accuracy gap of the
// raw-ingredient-sum approximation. With yield.None it is identical to
// EstimateRecipe.
func (e *Estimator) EstimateRecipeCooked(phrases []string, servings int, m yield.Method) (RecipeResult, error) {
	return e.EstimateRecipeCookedConcurrent(phrases, servings, m, 1)
}

// EstimateRecipeCookedConcurrent is EstimateRecipeCooked with the
// ingredient lines estimated by a worker pool (see EstimateBatchWorkers).
func (e *Estimator) EstimateRecipeCookedConcurrent(phrases []string, servings int, m yield.Method, workers int) (RecipeResult, error) {
	out, err := e.EstimateRecipeConcurrent(phrases, servings, workers)
	if err != nil {
		return out, err
	}
	out.Total = yield.Apply(out.Total, m)
	out.PerServing = yield.Apply(out.PerServing, m)
	return out, nil
}
