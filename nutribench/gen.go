package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"nutriprofile/internal/recipedb"
	"nutriprofile/internal/textutil"
	"nutriprofile/internal/units"
	"nutriprofile/internal/usda"
	"nutriprofile/internal/yield"
)

const (
	// paperCorpusSize is the recipe count of the paper's corpus.
	paperCorpusSize = 118071
	// defaultCacheEntries is nutriserve's default -cache size, the
	// capacity the long-tail workload's working set must dwarf.
	defaultCacheEntries = 8192
	// longtailMinDistinct is the input-shape floor for the long-tail
	// workload: distinct normalized ingredient names per run, at four
	// times the default cache.
	longtailMinDistinct = 4 * defaultCacheEntries
	// synthFoods and synthSeed fix the SR26-scale image: the seed table
	// plus 7,500 synthetic foods, 8,214 foods in all.
	synthFoods = 7500
	synthSeed  = 1
	// poolSize bounds the distinct phrases and recipes the interactive
	// stream draws from by Zipf rank.
	poolSize = 4096
	// zipfS is the interactive popularity skew.
	zipfS = 1.1
)

// recipe is one generated recipe with its gold answer.
type recipe struct {
	Ingredients []string
	Servings    int
	Method      yield.Method
	// GoldKcal is the true kcal per serving, after the cooking-yield
	// correction when Method is set (the server applies it too).
	GoldKcal float64
}

// wireRecipe is the /v1/recipe and /v1/batch line shape.
type wireRecipe struct {
	Ingredients []string `json:"ingredients"`
	Servings    int      `json:"servings,omitempty"`
	Method      string   `json:"method,omitempty"`
}

func (r *recipe) wire() ([]byte, error) {
	w := wireRecipe{Ingredients: r.Ingredients, Servings: r.Servings}
	if r.Method != yield.None {
		w.Method = r.Method.String()
	}
	return json.Marshal(w)
}

// chunk is one /v1/batch request body: recipes [first, first+n) of the
// bulk corpus, one NDJSON line each.
type chunk struct {
	first, n int
	body     []byte
}

// inputs is everything a workload sends, generated from the seed alone.
type inputs struct {
	db     *usda.DB // the composition table the server's image holds
	bulk   []recipe
	chunks []chunk
	// pool is what the interactive stream draws from: estimate bodies
	// for pool phrases, recipe bodies for pool recipes (indices into
	// bulk), both in Zipf rank order.
	phrases     []string
	estBodies   [][]byte
	poolRecipes []int
	recBodies   [][]byte
	// distinctNames counts distinct normalized ingredient names in bulk
	// (long-tail workload only).
	distinctNames int
	digest        string
}

// genConfig sizes a workload's inputs; tests shrink it.
type genConfig struct {
	paperRecipes    int
	longtailRecipes int
	chunkRecipes    int // recipes per /v1/batch request
}

var fullSize = genConfig{paperRecipes: paperCorpusSize, longtailRecipes: 40000, chunkRecipes: 1024}

// genInputs builds the inputs of one workload from its seed.
func genInputs(workload string, seed int64, gc genConfig) (*inputs, error) {
	in := &inputs{}
	var err error
	switch workload {
	case "bulk-paper":
		in.db = usda.Seed()
		in.bulk, err = paperCorpus(gc.paperRecipes, seed)
	case "bulk-longtail-sr26":
		in.db = usda.Merged(synthFoods, synthSeed)
		in.bulk = longtailCorpus(in.db, gc.longtailRecipes, seed)
		in.distinctNames = distinctNames(in.bulk)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	if err := in.render(gc.chunkRecipes, seed); err != nil {
		return nil, err
	}
	in.digest = in.hash()
	return in, nil
}

// paperShards is how many recipedb generators build the paper corpus
// side by side, each over its own derived seed. It is fixed, so the
// corpus does not depend on the host's CPU count.
const paperShards = 2

// paperCorpus is the paper-scale recipedb corpus over the seed table:
// shard k holds recipes k, k+paperShards, ... of the corpus.
func paperCorpus(n int, seed int64) ([]recipe, error) {
	shards := make([][]recipe, paperShards)
	errs := make([]error, paperShards)
	var wg sync.WaitGroup
	for k := range shards {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			size := (n - k + paperShards - 1) / paperShards
			shards[k] = make([]recipe, 0, size)
			errs[k] = recipedb.Each(recipedb.Config{NumRecipes: size, Seed: seed*paperShards + int64(k)}, func(r recipedb.Recipe) bool {
				rc := recipe{Ingredients: make([]string, len(r.Ingredients)), Servings: r.Servings, Method: r.Method}
				for i := range r.Ingredients {
					rc.Ingredients[i] = r.Ingredients[i].Phrase
				}
				rc.GoldKcal = r.GoldCookedPerServing().EnergyKcal
				shards[k] = append(shards[k], rc)
				return true
			})
		}(k)
	}
	wg.Wait()
	out := make([]recipe, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, shards[i%paperShards][i/paperShards])
	}
	return out, errors.Join(errs...)
}

// longtailSource is a food with the weight rows a phrase can name.
type longtailSource struct {
	food    *usda.Food
	segs    []string // lower-cased description segments; segs[0] is the head
	weights []int    // indices of weight rows with a recognized unit
	unit    []string // rendered unit word per weights entry
}

// longtailCorpus builds recipes whose ingredient names recombine the
// description segments of different foods: a source food's head, a
// random subset of its modifiers in random order, and half the time one
// modifier borrowed from another food. Quantity and unit come from one
// of the source food's weight rows, which is also the line's gold.
func longtailCorpus(db *usda.DB, n int, seed int64) []recipe {
	var srcs []longtailSource
	for i := 0; i < db.Len(); i++ {
		f := db.At(i)
		s := longtailSource{food: f}
		for _, seg := range textutil.SplitCommaTerms(f.Desc) {
			if seg = strings.ToLower(strings.TrimSpace(seg)); seg != "" {
				s.segs = append(s.segs, seg)
			}
		}
		for wi, w := range f.Weights {
			word := strings.Fields(w.Unit)
			if len(word) == 0 || w.Amount <= 0 || w.Grams <= 0 {
				continue
			}
			if _, ok := units.Normalize(word[0]); !ok {
				continue
			}
			s.weights = append(s.weights, wi)
			s.unit = append(s.unit, word[0])
		}
		if len(s.segs) > 0 && len(s.weights) > 0 {
			srcs = append(srcs, s)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]recipe, 0, n)
	for len(out) < n {
		lines := 4 + rng.Intn(9)
		rc := recipe{Ingredients: make([]string, 0, lines), Servings: 1 + rng.Intn(8)}
		var kcal float64
		for len(rc.Ingredients) < lines {
			s := &srcs[rng.Intn(len(srcs))]
			parts := []string{s.segs[0]}
			mods := append([]string(nil), s.segs[1:]...)
			rng.Shuffle(len(mods), func(i, j int) { mods[i], mods[j] = mods[j], mods[i] })
			parts = append(parts, mods[:rng.Intn(len(mods)+1)]...)
			if other := &srcs[rng.Intn(len(srcs))]; rng.Intn(2) == 0 && len(other.segs) > 1 {
				parts = append(parts, other.segs[1+rng.Intn(len(other.segs)-1)])
			}
			k := rng.Intn(len(s.weights))
			w := s.food.Weights[s.weights[k]]
			qty := float64(1+rng.Intn(16)) / 4
			rc.Ingredients = append(rc.Ingredients,
				strconv.FormatFloat(qty, 'f', -1, 64)+" "+s.unit[k]+" "+strings.Join(parts, ", "))
			grams := qty * w.Grams / w.Amount
			kcal += s.food.Per100g.EnergyKcal * grams / 100
		}
		rc.GoldKcal = kcal / float64(rc.Servings)
		out = append(out, rc)
	}
	return out
}

// render pre-renders the bulk chunks and the interactive pool, so the
// measured window contains no generation cost.
func (in *inputs) render(chunkRecipes int, seed int64) error {
	var body []byte
	first := 0
	for i := range in.bulk {
		b, err := in.bulk[i].wire()
		if err != nil {
			return err
		}
		body = append(append(body, b...), '\n')
		if i+1-first == chunkRecipes || i == len(in.bulk)-1 {
			in.chunks = append(in.chunks, chunk{first: first, n: i + 1 - first, body: body})
			body, first = nil, i+1
		}
	}
	// The pool is a seeded sample of the corpus; Zipf rank 0 is its
	// first element, so the hottest keys differ between seeds.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	seen := map[string]bool{}
	for _, ri := range rng.Perm(len(in.bulk)) {
		if len(in.poolRecipes) < poolSize {
			in.poolRecipes = append(in.poolRecipes, ri)
			b, err := in.bulk[ri].wire()
			if err != nil {
				return err
			}
			in.recBodies = append(in.recBodies, b)
		}
		if len(in.phrases) < poolSize {
			p := in.bulk[ri].Ingredients[rng.Intn(len(in.bulk[ri].Ingredients))]
			if !seen[p] {
				seen[p] = true
				in.phrases = append(in.phrases, p)
				b, err := json.Marshal(struct {
					Phrase string `json:"phrase"`
				}{p})
				if err != nil {
					return err
				}
				in.estBodies = append(in.estBodies, b)
			}
		}
		if len(in.poolRecipes) == poolSize && len(in.phrases) == poolSize {
			break
		}
	}
	return nil
}

// normalizedName is the ingredient-name part of a phrase, lower-cased
// with its words sorted: the input-side proxy for a distinct match
// query. It drops leading quantity and unit tokens and punctuation.
func normalizedName(phrase string) string {
	words := strings.FieldsFunc(strings.ToLower(phrase), func(r rune) bool {
		return !(r >= 'a' && r <= 'z')
	})
	kept := words[:0]
	for _, w := range words {
		if _, isUnit := units.Normalize(w); isUnit {
			continue
		}
		kept = append(kept, w)
	}
	sort.Strings(kept)
	return strings.Join(kept, " ")
}

func distinctNames(rs []recipe) int {
	seen := map[string]struct{}{}
	for i := range rs {
		for _, p := range rs[i].Ingredients {
			seen[normalizedName(p)] = struct{}{}
		}
	}
	return len(seen)
}

// hash digests every byte the workload can send, in order.
func (in *inputs) hash() string {
	h := sha256.New()
	var n [8]byte
	for _, c := range in.chunks {
		h.Write(c.body)
	}
	for _, b := range in.estBodies {
		h.Write(b)
	}
	for _, b := range in.recBodies {
		h.Write(b)
	}
	for _, r := range in.bulk {
		binary.LittleEndian.PutUint64(n[:], uint64(int64(r.GoldKcal*1e6)))
		h.Write(n[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// zipfSeq draws the interactive request sequence: request i is an
// estimate or a recipe (50/50) of Zipf(s=1.1) popularity rank. The
// sequence is a pure function of the seed.
type zipfSeq struct {
	rng            *rand.Rand
	phrase, recipe *recipedb.Zipf
}

func newZipfSeq(in *inputs, seed int64) *zipfSeq {
	return &zipfSeq{
		rng:    rand.New(rand.NewSource(seed ^ 0x21bf)),
		phrase: recipedb.NewZipf(len(in.phrases), zipfS, seed),
		recipe: recipedb.NewZipf(len(in.poolRecipes), zipfS, seed),
	}
}

// next returns whether request i is a recipe, and its pool index.
func (z *zipfSeq) next() (isRecipe bool, idx int) {
	if z.rng.Intn(2) == 0 {
		return false, z.phrase.Rank(z.rng.Float64())
	}
	return true, z.recipe.Rank(z.rng.Float64())
}
