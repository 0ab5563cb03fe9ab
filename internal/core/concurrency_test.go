package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"nutriprofile/internal/recipedb"
	"nutriprofile/internal/usda"
)

// testCorpus generates a small deterministic corpus and flattens it to
// per-recipe phrase slices.
func testCorpus(t *testing.T, recipes int) (*recipedb.Corpus, [][]string) {
	t.Helper()
	corpus, err := recipedb.Generate(recipedb.Config{NumRecipes: recipes, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	phrases := make([][]string, len(corpus.Recipes))
	for i := range corpus.Recipes {
		rec := &corpus.Recipes[i]
		phrases[i] = make([]string, len(rec.Ingredients))
		for j := range rec.Ingredients {
			phrases[i][j] = rec.Ingredients[j].Phrase
		}
	}
	return corpus, phrases
}

// recipeInputs pairs each corpus recipe's phrases with its servings.
func recipeInputs(corpus *recipedb.Corpus, phrases [][]string) []RecipeInput {
	inputs := make([]RecipeInput, len(phrases))
	for i := range phrases {
		inputs[i] = RecipeInput{Phrases: phrases[i], Servings: corpus.Recipes[i].Servings}
	}
	return inputs
}

// estimateLines estimates each phrase as a one-line recipe through
// EstimateRecipes and returns the per-line results in input order.
func estimateLines(e *Estimator, phrases []string, workers int) []IngredientResult {
	inputs := make([]RecipeInput, len(phrases))
	for i := range phrases {
		inputs[i] = RecipeInput{Phrases: phrases[i : i+1], Servings: 1}
	}
	out := make([]IngredientResult, len(phrases))
	for i, o := range e.EstimateRecipes(inputs, workers) {
		out[i] = o.Result.Ingredients[0]
	}
	return out
}

// renderResult serializes a RecipeResult completely, so "byte-identical"
// below means exactly that.
func renderResult(rr RecipeResult, err error) string {
	if err != nil {
		return "err: " + err.Error()
	}
	return fmt.Sprintf("%+v", rr)
}

// TestSharedEstimatorStress shares one cached Estimator across 8
// goroutines estimating overlapping recipes and asserts every result is
// byte-identical to the sequential, uncached path. Run under -race this
// is the concurrency-safety proof for the batch layer.
func TestSharedEstimatorStress(t *testing.T) {
	corpus, phrases := testCorpus(t, 60)

	// Sequential reference: fresh uncached estimator, one goroutine.
	ref := NewDefault()
	ref.ObserveUnits(corpus.Phrases())
	want := make([]string, len(phrases))
	for i := range phrases {
		rr, err := ref.EstimateRecipe(context.Background(), RecipeInput{Phrases: phrases[i], Servings: corpus.Recipes[i].Servings})
		want[i] = renderResult(rr, err)
	}

	// Shared estimator: cached, observed concurrently, hammered by 8
	// goroutines over overlapping recipe sets.
	shared, err := New(usda.Seed(), nil, Options{CacheSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	shared.ObserveUnits(corpus.Phrases())

	const goroutines = 8
	var wg sync.WaitGroup
	got := make([][]string, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		got[g] = make([]string, len(phrases))
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine walks every recipe, offset so the cache is
			// hit from different positions simultaneously.
			for k := 0; k < len(phrases); k++ {
				i := (k + g*7) % len(phrases)
				rr, err := shared.EstimateRecipe(context.Background(), RecipeInput{Phrases: phrases[i], Servings: corpus.Recipes[i].Servings})
				got[g][i] = renderResult(rr, err)
			}
		}()
	}
	wg.Wait()

	for g := 0; g < goroutines; g++ {
		for i := range phrases {
			if got[g][i] != want[i] {
				t.Fatalf("goroutine %d recipe %d diverged from sequential path:\n got: %s\nwant: %s",
					g, i, got[g][i], want[i])
			}
		}
	}

	ps, ms := shared.CacheStats()
	if ps.Hits == 0 || ms.Hits == 0 {
		t.Errorf("expected cache hits under overlapping load; phrase=%+v match=%+v", ps, ms)
	}
}

// TestRecipeLinesMatchSequential checks line order and per-line
// equivalence with EstimateIngredient for every worker count, cached
// and uncached.
func TestRecipeLinesMatchSequential(t *testing.T) {
	corpus, phrases := testCorpus(t, 30)
	inputs := recipeInputs(corpus, phrases)

	ref := NewDefault()
	want := make([][]string, len(phrases))
	for i := range phrases {
		for _, p := range phrases[i] {
			want[i] = append(want[i], fmt.Sprintf("%+v", ref.EstimateIngredient(p)))
		}
	}

	for _, cacheSize := range []int{0, 1 << 10} {
		for _, workers := range []int{0, 1, 3, 8} {
			e, err := New(usda.Seed(), nil, Options{CacheSize: cacheSize})
			if err != nil {
				t.Fatal(err)
			}
			for i, o := range e.EstimateRecipes(inputs, workers) {
				if o.Err != nil {
					t.Fatalf("cache=%d workers=%d: recipe %d: %v", cacheSize, workers, i, o.Err)
				}
				if len(o.Result.Ingredients) != len(want[i]) {
					t.Fatalf("cache=%d workers=%d: recipe %d has %d lines, want %d",
						cacheSize, workers, i, len(o.Result.Ingredients), len(want[i]))
				}
				for j, r := range o.Result.Ingredients {
					if s := fmt.Sprintf("%+v", r); s != want[i][j] {
						t.Fatalf("cache=%d workers=%d: recipe %d line %d diverged:\n got: %s\nwant: %s",
							cacheSize, workers, i, j, s, want[i][j])
					}
				}
			}
		}
	}
}

// TestEstimateRecipesMatchesSequential checks the recipe-level pool,
// including per-recipe error isolation.
func TestEstimateRecipesMatchesSequential(t *testing.T) {
	corpus, phrases := testCorpus(t, 25)
	inputs := make([]RecipeInput, len(phrases))
	for i := range phrases {
		inputs[i] = RecipeInput{Phrases: phrases[i], Servings: corpus.Recipes[i].Servings}
	}
	// Inject malformed recipes: they must yield Err without aborting
	// the rest of the batch.
	inputs = append(inputs,
		RecipeInput{Phrases: nil, Servings: 2},
		RecipeInput{Phrases: []string{"1 cup milk"}, Servings: 0},
	)

	ref := NewDefault()
	want := make([]string, len(inputs))
	for i, in := range inputs {
		rr, err := ref.EstimateRecipe(context.Background(), in)
		want[i] = renderResult(rr, err)
	}

	e, err := New(usda.Seed(), nil, Options{CacheSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	out := e.EstimateRecipes(inputs, 4)
	for i := range out {
		if s := renderResult(out[i].Result, out[i].Err); s != want[i] {
			t.Fatalf("recipe %d diverged:\n got: %s\nwant: %s", i, s, want[i])
		}
	}
	if out[len(out)-2].Err == nil || out[len(out)-1].Err == nil {
		t.Fatal("malformed recipes did not report errors")
	}
	if e.EstimateRecipes(nil, 4) != nil {
		t.Fatal("EstimateRecipes(nil) should be nil")
	}
}

// TestObserveUnitsConcurrentWithEstimation calls ObserveUnits while 8
// workers are estimating through the same estimator — the exact pattern
// the old frequency map raced on. Under -race this must be clean, and
// afterwards the most-frequent-unit fallback must reflect the pass.
func TestObserveUnitsConcurrentWithEstimation(t *testing.T) {
	corpus, phrases := testCorpus(t, 40)
	flat := corpus.Phrases()
	inputs := recipeInputs(corpus, phrases)

	e, err := New(usda.Seed(), nil, Options{CacheSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.EstimateRecipes(inputs, 2)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.ObserveUnits(flat)
		e.ObserveUnits(flat)
	}()
	wg.Wait()

	// The observation pass must have produced the same frequency state
	// as a sequential estimator observing the corpus twice.
	ref := NewDefault()
	ref.ObserveUnits(flat)
	ref.ObserveUnits(flat)
	for _, p := range flat {
		got := fmt.Sprintf("%+v", e.EstimateIngredient(p))
		want := fmt.Sprintf("%+v", ref.EstimateIngredient(p))
		if got != want {
			t.Fatalf("post-observation estimate for %q diverged:\n got: %s\nwant: %s", p, got, want)
		}
	}
}

// TestObserveUnitsInvalidatesPhraseCache pins the staleness contract:
// a warm cached result that depended on the default-row fallback must
// be recomputed once ObserveUnits teaches the estimator a modal unit.
func TestObserveUnitsInvalidatesPhraseCache(t *testing.T) {
	e, err := New(usda.Seed(), nil, Options{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	ref := NewDefault()

	const probe = "garlic , minced" // no unit in phrase → fallback chain
	before := e.EstimateIngredient(probe)
	if fmt.Sprintf("%+v", before) != fmt.Sprintf("%+v", ref.EstimateIngredient(probe)) {
		t.Fatal("cached estimator diverged before observation")
	}

	teach := []string{"2 cloves garlic", "3 cloves garlic , crushed"}
	e.ObserveUnits(teach)
	ref.ObserveUnits(teach)

	after := e.EstimateIngredient(probe)
	want := ref.EstimateIngredient(probe)
	if fmt.Sprintf("%+v", after) != fmt.Sprintf("%+v", want) {
		t.Fatalf("stale cache after ObserveUnits:\n got: %+v\nwant: %+v", after, want)
	}
	if want.UnitOrigin == UnitMostFrequent && after.UnitOrigin != UnitMostFrequent {
		t.Fatal("observation did not reach the cached path")
	}
}

// TestCachedEqualsUncached sweeps a corpus through a cached and an
// uncached estimator and requires byte-identical output — the purity
// guarantee DESIGN.md documents.
func TestCachedEqualsUncached(t *testing.T) {
	corpus, _ := testCorpus(t, 50)
	flat := corpus.Phrases()

	plain := NewDefault()
	cached, err := New(usda.Seed(), nil, Options{CacheSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	plain.ObserveUnits(flat)
	cached.ObserveUnits(flat)

	// Two sweeps so the second one is answered almost entirely from
	// cache (including LRU churn at capacity 256).
	for sweep := 0; sweep < 2; sweep++ {
		for _, p := range flat {
			got := fmt.Sprintf("%+v", cached.EstimateIngredient(p))
			want := fmt.Sprintf("%+v", plain.EstimateIngredient(p))
			if got != want {
				t.Fatalf("sweep %d: cached result for %q diverged:\n got: %s\nwant: %s", sweep, p, got, want)
			}
		}
	}
	ps, _ := cached.CacheStats()
	if ps.Hits == 0 {
		t.Error("second sweep produced no phrase-cache hits")
	}
}
