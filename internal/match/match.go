package match

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"nutriprofile/internal/textutil"
	"nutriprofile/internal/usda"
)

// Metric selects the string-similarity index. The paper's contribution is
// the Modified Jaccard Index; the vanilla index is retained as the
// baseline Table III compares against.
type Metric int

const (
	// ModifiedJaccard is J*(A,B) = |A∩B| / |A| (§II-B(e)): only the
	// ingredient-phrase words need covering, removing the bias against
	// long, detailed food descriptions.
	ModifiedJaccard Metric = iota
	// VanillaJaccard is J(A,B) = |A∩B| / |A∪B|.
	VanillaJaccard
)

func (m Metric) String() string {
	if m == VanillaJaccard {
		return "vanilla-jaccard"
	}
	return "modified-jaccard"
}

// Options toggles the individual §II-B heuristics, primarily so the
// ablation benchmarks can measure each one's contribution. DefaultOptions
// enables everything, which is the paper's configuration.
type Options struct {
	Metric Metric
	// RawProvision implements §II-B(g): when the query carries no STATE
	// entity, a description containing the word "raw" gets "an
	// additional word" matched — realized as a tie-break bonus above
	// priority resolution, so "apple" prefers "Apples, raw, with skin"
	// over equal-scoring descriptions without "raw". The bonus never
	// changes the Jaccard score itself, so it cannot displace a
	// strictly better match (e.g. "tomato paste" still beats
	// "Tomatoes, green, raw").
	RawProvision bool
	// PriorityResolution breaks score ties by preferring matches whose
	// words occur in earlier comma-separated description terms (§II-B(h)).
	PriorityResolution bool
	// NameAnchoring requires every candidate description to share at
	// least one word with the NAME entity itself (not merely with the
	// STATE/TEMP/DF words folded in by §II-B(d)). This operationalizes
	// §II-B(a)'s observation that the head food term is what carries the
	// match: without it, "zucchini, sliced" drifts to "Ham, sliced"
	// through the state word alone.
	NameAnchoring bool
	// MinScore is the score below which a query is reported unmatched.
	// The paper treats any nonzero overlap as a (possibly poor) match.
	MinScore float64
	// ExplainMatched materializes Result.Matched — the sorted query
	// words found in each returned description — for explain-style
	// output (dbtool -search, examples/matcher). It is off by default:
	// the scoring itself never needs the strings, and the estimation
	// pipeline never reads them, so the hot path skips the per-result
	// []string entirely. Scores, ordering and every other Result field
	// are identical either way.
	ExplainMatched bool
}

// DefaultOptions is the paper's configuration.
func DefaultOptions() Options {
	return Options{
		Metric:             ModifiedJaccard,
		RawProvision:       true,
		PriorityResolution: true,
		NameAnchoring:      true,
		MinScore:           1e-9,
	}
}

// Query is one ingredient to match. Name is the NER NAME entity; State,
// Temp and DryFresh are the additional entities §II-B(d) folds into the
// comparison ("we match the whole description along with the State,
// Temperature and Freshness entities derived from our NER pipeline").
type Query struct {
	Name     string
	State    string
	Temp     string
	DryFresh string
}

// Result is one candidate description with its score.
type Result struct {
	NDB      int
	Desc     string
	Score    float64
	Priority int // sum of matched words' term priorities; lower is better
	// RawBonus marks the §II-B(g) provision: the description contains
	// "raw" and the query had no STATE entity.
	RawBonus bool
	// Matched lists the query words found in the description, sorted.
	// Populated only under Options.ExplainMatched.
	Matched []string
	index   int // position in db order, the §II-B(i) tie-break key
}

// Matcher matches ingredient queries against a fixed database. It is
// immutable after construction and safe for concurrent use: Match,
// Rank, MatchFuzzy and CorrectQuery only read the prebuilt index, and
// per-query scratch state lives in pooled arenas, so any number of
// goroutines may share one Matcher (core.EstimateBatch does exactly
// that). Results are deterministic regardless of goroutine interleaving
// — the ranking key (score, raw bonus, priority, database order) is a
// total order, so identical queries always produce identical rankings.
//
// Internally the matcher is a small IR engine over an interned
// vocabulary: every normalized description word gets a dense uint32
// term ID at construction, documents are sorted ID sets, and each term
// owns a flat posting list of the documents containing it (plus the
// word's §II-B(h) sequence priority in that document). Rank runs
// term-at-a-time over the query's posting lists into an epoch-stamped
// accumulator arena and selects the top k with a bounded heap — no
// maps, no string hashing, and zero allocations on the warm path.
type Matcher struct {
	db   *usda.DB
	opts Options

	vocab *textutil.Interner

	// Documents, CSR-flat: docTerms[docOff[d]:docOff[d+1]] is document
	// d's sorted unique term IDs; hasRaw records the literal state word
	// "raw" for the §II-B(g) provision.
	docTerms []uint32
	docOff   []int32
	hasRaw   []bool

	// Posting lists, CSR-flat: postDocs[postOff[t]:postOff[t+1]] is the
	// ascending document indices containing term t, and postPri the
	// term's 1-based first comma-term index in that document (§II-B(h)).
	postDocs []int32
	postPri  []int32
	postOff  []int32

	// arenas recycles per-query accumulator state; see arena.go.
	arenas     sync.Pool
	poolGets   atomic.Uint64
	poolMisses atomic.Uint64

	// Pruned-engine instrumentation (prune.go), batched per query and
	// flushed once, so the counters cost a handful of uncontended atomic
	// adds per rank, not one per posting decision.
	pruneTermsSkipped    atomic.Uint64
	prunePostingsAvoided atomic.Uint64
	pruneDocsDropped     atomic.Uint64
	pruneCompactions     atomic.Uint64
	pruneGatherExits     atomic.Uint64
	adaptiveProbeTerms   atomic.Uint64
}

// Index is the matcher's prebuilt scoring index in its exact in-memory
// layout: the interned vocabulary (Terms[id] is term id's word), the
// CSR-flat document term sets, and the CSR-flat posting lists. New
// computes an Index from the database descriptions; the baked-image
// loader (internal/usda/bake) deserializes one and hands it to
// NewFromIndex, skipping the normalize/intern/flatten pass entirely.
// Index construction depends only on the database — never on Options —
// so one Index serves any matcher configuration.
type Index struct {
	// Terms is the interned vocabulary in ID order.
	Terms []string
	// DocTerms[DocOff[d]:DocOff[d+1]] is document d's sorted unique term
	// IDs; HasRaw[d] records the literal state word "raw" (§II-B(g)).
	DocTerms []uint32
	DocOff   []int32
	HasRaw   []bool
	// PostDocs[PostOff[t]:PostOff[t+1]] is the ascending document
	// indices containing term t, PostPri the term's 1-based first
	// comma-term index in that document (§II-B(h)).
	PostDocs []int32
	PostPri  []int32
	PostOff  []int32
}

// buildIndex preprocesses every description in db into the interned
// vocabulary, document ID sets and posting lists.
func buildIndex(db *usda.DB) (*Index, *textutil.Interner) {
	n := db.Len()
	idx := &Index{}
	vocab := textutil.NewInterner()

	// Pass 1: normalize each description into per-document (term ID,
	// priority) pairs, interning every word.
	type termPri struct {
		id  uint32
		pri int32
	}
	perDoc := make([][]termPri, n)
	idx.HasRaw = make([]bool, n)
	var norm, toks []string
	for d := 0; d < n; d++ {
		var doc []termPri
		for termIdx, term := range textutil.SplitCommaTerms(db.At(d).Desc) {
			norm, toks = appendNormalizedTokens(norm[:0], term, toks)
			for _, w := range norm {
				if w == "raw" {
					idx.HasRaw[d] = true
				}
				id := vocab.Intern(w)
				dup := false
				for _, tp := range doc {
					if tp.id == id {
						dup = true
						break
					}
				}
				// First occurrence wins: the §II-B(h) priority is the
				// FIRST comma term the word appears in.
				if !dup {
					doc = append(doc, termPri{id: id, pri: int32(termIdx + 1)})
				}
			}
		}
		perDoc[d] = doc
	}

	// Pass 2: flatten documents (sorted by term ID) and posting lists
	// (sorted by document index, which the ascending doc loop gives for
	// free).
	vocabLen := vocab.Len()
	total := 0
	counts := make([]int32, vocabLen+1)
	for _, doc := range perDoc {
		total += len(doc)
		for _, tp := range doc {
			counts[tp.id+1]++
		}
	}
	idx.Terms = vocab.Terms()
	idx.DocTerms = make([]uint32, 0, total)
	idx.DocOff = make([]int32, n+1)
	idx.PostOff = make([]int32, vocabLen+1)
	for t := 1; t <= vocabLen; t++ {
		idx.PostOff[t] = idx.PostOff[t-1] + counts[t]
	}
	idx.PostDocs = make([]int32, total)
	idx.PostPri = make([]int32, total)
	fill := append([]int32(nil), idx.PostOff[:vocabLen]...)
	ids := make([]uint32, 0, 16)
	for d, doc := range perDoc {
		ids = ids[:0]
		for _, tp := range doc {
			ids = append(ids, tp.id)
			p := fill[tp.id]
			idx.PostDocs[p] = int32(d)
			idx.PostPri[p] = tp.pri
			fill[tp.id] = p + 1
		}
		idx.DocTerms = append(idx.DocTerms, textutil.SortDedupIDs(ids)...)
		idx.DocOff[d+1] = int32(len(idx.DocTerms))
	}
	return idx, vocab
}

// BuildIndex computes the scoring index for db — exactly the index New
// builds internally. cmd/dbbake serializes its output into the baked
// image so serving processes can load it back with NewFromIndex.
func BuildIndex(db *usda.DB) *Index {
	idx, _ := buildIndex(db)
	return idx
}

// ErrBadIndex reports a structurally invalid prebuilt index (corrupt or
// mismatched baked image).
var ErrBadIndex = errors.New("match: invalid prebuilt index")

// validate checks the structural invariants the scoring engine assumes:
// consistent section lengths, monotonic CSR offsets, term IDs inside the
// vocabulary, document indices inside the database, and sorted unique
// per-document term sets. An index that passes cannot make the engine
// read out of bounds.
func (idx *Index) validate(docs int) error {
	vocabLen := len(idx.Terms)
	switch {
	case len(idx.DocOff) != docs+1:
		return fmt.Errorf("%w: %d doc offsets for %d docs", ErrBadIndex, len(idx.DocOff), docs)
	case len(idx.HasRaw) != docs:
		return fmt.Errorf("%w: %d hasRaw flags for %d docs", ErrBadIndex, len(idx.HasRaw), docs)
	case len(idx.PostOff) != vocabLen+1:
		return fmt.Errorf("%w: %d posting offsets for %d terms", ErrBadIndex, len(idx.PostOff), vocabLen)
	case len(idx.PostDocs) != len(idx.PostPri):
		return fmt.Errorf("%w: %d posting docs vs %d priorities", ErrBadIndex, len(idx.PostDocs), len(idx.PostPri))
	case len(idx.DocTerms) != len(idx.PostDocs):
		return fmt.Errorf("%w: %d doc terms vs %d postings", ErrBadIndex, len(idx.DocTerms), len(idx.PostDocs))
	case len(idx.DocOff) > 0 && idx.DocOff[0] != 0,
		len(idx.PostOff) > 0 && idx.PostOff[0] != 0:
		return fmt.Errorf("%w: nonzero leading offset", ErrBadIndex)
	case len(idx.DocOff) > 0 && int(idx.DocOff[docs]) != len(idx.DocTerms):
		return fmt.Errorf("%w: doc offsets end at %d, want %d", ErrBadIndex, idx.DocOff[docs], len(idx.DocTerms))
	case len(idx.PostOff) > 0 && int(idx.PostOff[vocabLen]) != len(idx.PostDocs):
		return fmt.Errorf("%w: posting offsets end at %d, want %d", ErrBadIndex, idx.PostOff[vocabLen], len(idx.PostDocs))
	}
	for d := 0; d < docs; d++ {
		lo, hi := idx.DocOff[d], idx.DocOff[d+1]
		if lo > hi {
			return fmt.Errorf("%w: doc %d offsets decrease", ErrBadIndex, d)
		}
		for i := lo; i < hi; i++ {
			if int(idx.DocTerms[i]) >= vocabLen {
				return fmt.Errorf("%w: doc %d references term %d beyond vocabulary %d", ErrBadIndex, d, idx.DocTerms[i], vocabLen)
			}
			if i > lo && idx.DocTerms[i] <= idx.DocTerms[i-1] {
				return fmt.Errorf("%w: doc %d term set not sorted unique", ErrBadIndex, d)
			}
		}
	}
	for t := 0; t < vocabLen; t++ {
		lo, hi := idx.PostOff[t], idx.PostOff[t+1]
		if lo > hi {
			return fmt.Errorf("%w: term %d posting offsets decrease", ErrBadIndex, t)
		}
		for i := lo; i < hi; i++ {
			if int(idx.PostDocs[i]) >= docs || idx.PostDocs[i] < 0 {
				return fmt.Errorf("%w: term %d posts document %d outside db of %d", ErrBadIndex, t, idx.PostDocs[i], docs)
			}
			if i > lo && idx.PostDocs[i] <= idx.PostDocs[i-1] {
				return fmt.Errorf("%w: term %d posting list not ascending", ErrBadIndex, t)
			}
			if idx.PostPri[i] < 1 {
				return fmt.Errorf("%w: term %d has non-positive priority %d", ErrBadIndex, t, idx.PostPri[i])
			}
		}
	}
	return nil
}

// adopt wires a built/validated index into the matcher.
func (m *Matcher) adopt(idx *Index, vocab *textutil.Interner) {
	m.vocab = vocab
	m.docTerms = idx.DocTerms
	m.docOff = idx.DocOff
	m.hasRaw = idx.HasRaw
	m.postDocs = idx.PostDocs
	m.postPri = idx.PostPri
	m.postOff = idx.PostOff
	n := m.db.Len()
	m.arenas.New = func() any {
		m.poolMisses.Add(1)
		return newArena(n)
	}
}

// New preprocesses every description in db and builds the interned
// vocabulary, document ID sets and posting lists.
func New(db *usda.DB, opts Options) *Matcher {
	m := &Matcher{db: db, opts: opts}
	idx, vocab := buildIndex(db)
	m.adopt(idx, vocab)
	return m
}

// NewFromIndex builds a Matcher over db adopting a prebuilt index (a
// deserialized baked image) instead of re-normalizing and re-interning
// every description. The index is structurally validated — offsets
// monotone, IDs in range — so a corrupt image yields ErrBadIndex, never
// an out-of-bounds panic at query time. The caller must not mutate idx
// after the call; the matcher aliases its slices.
func NewFromIndex(db *usda.DB, opts Options, idx *Index) (*Matcher, error) {
	if db == nil || idx == nil {
		return nil, fmt.Errorf("%w: nil database or index", ErrBadIndex)
	}
	if err := idx.validate(db.Len()); err != nil {
		return nil, err
	}
	m := &Matcher{db: db, opts: opts}
	m.adopt(idx, textutil.NewInternerFromTerms(idx.Terms))
	return m, nil
}

// NewDefault builds a Matcher with the paper's configuration.
func NewDefault(db *usda.DB) *Matcher { return New(db, DefaultOptions()) }

// Options returns the matcher's configuration.
func (m *Matcher) Options() Options { return m.opts }

// docIDs returns document d's sorted term-ID set.
func (m *Matcher) docIDs(d int32) textutil.IDSet {
	return textutil.IDSet(m.docTerms[m.docOff[d]:m.docOff[d+1]])
}

// docLen returns the number of distinct normalized words in document d
// (the |B| of the vanilla-Jaccard union).
func (m *Matcher) docLen(d int32) int {
	return int(m.docOff[d+1] - m.docOff[d])
}

// querySet builds the preprocessed ingredient word set A of §II-B(e) in
// string space. The scoring engine works in interned-ID space (see
// arena.prepare); this helper remains for the containment baseline
// (ExactMatcher) and for tests that inspect the sets directly.
// rawEligible reports whether the §II-B(g) provision applies (no STATE
// entity and "raw" not already a query word).
func (m *Matcher) querySet(q Query) (anchor, scored textutil.Set, rawEligible bool) {
	nameTokens := NormalizeTokens(q.Name)
	tokens := nameTokens
	for _, extra := range []string{q.State, q.Temp, q.DryFresh} {
		if extra != "" {
			tokens = append(tokens, NormalizeTokens(extra)...)
		}
	}
	scored = textutil.NewSet(tokens)
	anchor = scored
	if m.opts.NameAnchoring {
		anchor = textutil.NewSet(nameTokens)
	}
	rawEligible = m.opts.RawProvision && q.State == "" && !scored.Has("raw")
	return anchor, scored, rawEligible
}

// Match returns the best description for the query, or ok=false when no
// description shares a word with it (the unmatched ~5.5% of §III). It
// allocates nothing on the warm path beyond the optional ExplainMatched
// materialization.
func (m *Matcher) Match(q Query) (Result, bool) {
	a := m.getArena()
	defer m.putArena(a)
	cands := m.rankCands(a, q, 1)
	if len(cands) == 0 {
		return Result{}, false
	}
	var r Result
	m.fillResult(a, cands[0], &r)
	return r, true
}

// Rank returns the top-k candidates in preference order: score descending,
// then priority ascending (if enabled), then database order (§II-B(i)).
// k ≤ 0 returns every candidate with Score ≥ MinScore.
func (m *Matcher) Rank(q Query, k int) []Result {
	a := m.getArena()
	defer m.putArena(a)
	cands := m.rankCands(a, q, k)
	if len(cands) == 0 {
		return nil
	}
	out := make([]Result, len(cands))
	for i, c := range cands {
		m.fillResult(a, c, &out[i])
	}
	return out
}

// RankInto is Rank appending into dst[:0], so steady-state callers can
// reuse one result buffer across queries and rank with zero allocations
// (when ExplainMatched is off). It returns dst re-sliced to the result
// count, which is 0 (not nil) for unmatched queries.
func (m *Matcher) RankInto(q Query, k int, dst []Result) []Result {
	dst = dst[:0]
	a := m.getArena()
	defer m.putArena(a)
	for _, c := range m.rankCands(a, q, k) {
		var r Result
		m.fillResult(a, c, &r)
		dst = append(dst, r)
	}
	return dst
}

// fillResult materializes one selected candidate into a Result.
func (m *Matcher) fillResult(a *arena, c cand, r *Result) {
	food := m.db.At(int(c.doc))
	r.NDB = food.NDB
	r.Desc = food.Desc
	r.Score = c.score
	r.Priority = int(c.pri)
	r.RawBonus = c.raw
	r.index = int(c.doc)
	if m.opts.ExplainMatched {
		r.Matched = m.matchedWords(a, c.doc)
	}
}

// matchedWords lazily materializes the sorted matched-word list for one
// returned document — the per-candidate cost the old engine paid for
// every scored candidate now happens at most k times per query.
func (m *Matcher) matchedWords(a *arena, d int32) []string {
	doc := m.docIDs(d)
	matched := make([]string, 0, len(a.words))
	// a.words is lexically sorted by prepare under ExplainMatched, so
	// filtering preserves sortedness.
	for i, w := range a.words {
		if id := a.wordIDs[i]; id != oovID && doc.Has(id) {
			matched = append(matched, w)
		}
	}
	return matched
}

// better reports whether candidate x outranks y under the total order:
// score descending, raw bonus (§II-B(g)), priority ascending (§II-B(h),
// if enabled), then database order (§II-B(i)). The final key is unique,
// so this is a strict total order and every selection is deterministic.
func (m *Matcher) better(x, y cand) bool {
	if x.score != y.score {
		return x.score > y.score
	}
	if x.raw != y.raw {
		return x.raw // §II-B(g): the free "raw" word wins ties
	}
	if m.opts.PriorityResolution && x.pri != y.pri {
		return x.pri < y.pri
	}
	return x.doc < y.doc // §II-B(i): first match in SR order
}

// MatchName is shorthand for matching a bare ingredient name.
func (m *Matcher) MatchName(name string) (Result, bool) {
	return m.Match(Query{Name: name})
}

// DB returns the underlying database.
func (m *Matcher) DB() *usda.DB { return m.db }

// MatcherStats describes the interned index and the arena pool, for
// observability (cmd/nutriprofile -stats, nutriserve GET /v1/stats —
// the JSON tags are that endpoint's wire form).
type MatcherStats struct {
	Docs           int    `json:"docs"`            // documents (food descriptions) indexed
	VocabSize      int    `json:"vocab_size"`      // distinct interned terms
	PostingLists   int    `json:"posting_lists"`   // non-empty posting lists (== VocabSize here)
	PostingEntries int    `json:"posting_entries"` // total (term, doc) postings
	PoolGets       uint64 `json:"pool_gets"`       // arena checkouts (one per query)
	PoolMisses     uint64 `json:"pool_misses"`     // checkouts that had to allocate a fresh arena

	// Ranking-engine counters (prune.go).
	PruneTermsSkipped    uint64 `json:"prune_terms_skipped"`    // scored terms never applied (candidate set emptied)
	PrunePostingsAvoided uint64 `json:"prune_postings_avoided"` // posting entries never sequentially scanned
	PruneDocsDropped     uint64 `json:"prune_docs_dropped"`     // candidates dropped by bar compaction
	PruneCompactions     uint64 `json:"prune_compactions"`      // bar compaction passes over the candidate set
	PruneGatherExits     uint64 `json:"prune_gather_exits"`     // queries that switched gather → update-only mode
	AdaptiveProbeTerms   uint64 `json:"adaptive_probe_terms"`   // terms scored by candidate probes instead of posting walks
}

// PoolHitRate returns the fraction of queries served by a recycled
// arena; the steady state is ~1 (only pool cold-starts and GC-reclaimed
// arenas miss).
func (s MatcherStats) PoolHitRate() float64 {
	if s.PoolGets == 0 {
		return 0
	}
	return 1 - float64(s.PoolMisses)/float64(s.PoolGets)
}

// Stats snapshots the matcher's index shape and arena-pool counters.
func (m *Matcher) Stats() MatcherStats {
	lists := 0
	for t := 0; t < m.vocab.Len(); t++ {
		if m.postOff[t+1] > m.postOff[t] {
			lists++
		}
	}
	return MatcherStats{
		Docs:                 m.db.Len(),
		VocabSize:            m.vocab.Len(),
		PostingLists:         lists,
		PostingEntries:       len(m.postDocs),
		PoolGets:             m.poolGets.Load(),
		PoolMisses:           m.poolMisses.Load(),
		PruneTermsSkipped:    m.pruneTermsSkipped.Load(),
		PrunePostingsAvoided: m.prunePostingsAvoided.Load(),
		PruneDocsDropped:     m.pruneDocsDropped.Load(),
		PruneCompactions:     m.pruneCompactions.Load(),
		PruneGatherExits:     m.pruneGatherExits.Load(),
		AdaptiveProbeTerms:   m.adaptiveProbeTerms.Load(),
	}
}

func (m *Matcher) getArena() *arena {
	m.poolGets.Add(1)
	return m.arenas.Get().(*arena)
}

func (m *Matcher) putArena(a *arena) { m.arenas.Put(a) }
