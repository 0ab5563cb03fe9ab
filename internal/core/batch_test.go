package core

// Tests for the recipe batch layer (batch.go): equivalence of every
// worker count with the sequential path, and batched stat-flush
// totals. The storm tests run 32 goroutines against one Estimator and
// are the -race proof obligations of DESIGN.md §12.

import (
	"context"
	"sync"
	"testing"

	"nutriprofile/internal/usda"
)

// stormInputs tiles a corpus's recipes with repeats so the shared
// caches see both first-contact and repeat traffic.
func stormInputs(t *testing.T) []RecipeInput {
	t.Helper()
	corpus, phrases := testCorpus(t, 40)
	var out []RecipeInput
	for rep := 0; rep < 3; rep++ {
		out = append(out, recipeInputs(corpus, phrases)...)
	}
	return out
}

// sequentialRecipes renders each recipe estimated in turn by a fresh
// uncached estimator: the reference every batch must reproduce.
func sequentialRecipes(inputs []RecipeInput) []string {
	ref := NewDefault()
	want := make([]string, len(inputs))
	for i, in := range inputs {
		want[i] = renderResult(ref.EstimateRecipe(context.Background(), in))
	}
	return want
}

// TestShardedBatchMatchesSequential: EstimateRecipes at every worker
// count and EstimateRecipe on each recipe, cached and uncached, must
// produce byte-identical output to the sequential reference.
func TestShardedBatchMatchesSequential(t *testing.T) {
	inputs := stormInputs(t)
	want := sequentialRecipes(inputs)

	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"cached", Options{CacheSize: 1 << 12}},
		{"uncached", Options{}},
	} {
		for _, workers := range []int{2, 4, 8, 32} {
			e, err := New(usda.Seed(), nil, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, o := range e.EstimateRecipes(inputs, workers) {
				if s := renderResult(o.Result, o.Err); s != want[i] {
					t.Fatalf("%s workers=%d: recipe %d diverged:\n got: %s\nwant: %s",
						tc.name, workers, i, s, want[i])
				}
			}
			for i, in := range inputs {
				if s := renderResult(e.EstimateRecipe(context.Background(), in)); s != want[i] {
					t.Fatalf("%s EstimateRecipe after workers=%d: recipe %d diverged:\n got: %s\nwant: %s",
						tc.name, workers, i, s, want[i])
				}
			}
		}
	}
}

// TestShardedBatchStorm32 hammers one cached estimator with 32
// concurrent recipe batches at 1–4 workers each; every batch must
// still return the sequential reference results. Run under -race this
// is the proof that the shared caches and the environment free list
// are data-race free.
func TestShardedBatchStorm32(t *testing.T) {
	inputs := stormInputs(t)
	want := sequentialRecipes(inputs)

	e, err := New(usda.Seed(), nil, Options{CacheSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, o := range e.EstimateRecipes(inputs, 1+g%4) {
				if s := renderResult(o.Result, o.Err); s != want[i] {
					t.Errorf("goroutine %d: recipe %d diverged:\n got: %s\nwant: %s", g, i, s, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEnvStatsFlushTotals: environments count phrases in a plain field
// and add them to the totals once per checkout; the totals must still
// be exact once all batches drain — 32 goroutines, no lost updates.
func TestEnvStatsFlushTotals(t *testing.T) {
	inputs := stormInputs(t)
	lines := 0
	for _, in := range inputs {
		lines += len(in.Phrases)
	}
	e, err := New(usda.Seed(), nil, Options{CacheSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 32
	workersPer := 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.EstimateRecipes(inputs, workersPer)
		}()
	}
	wg.Wait()

	st := e.EnvStats()
	if want := uint64(goroutines * lines); st.Phrases != want {
		t.Errorf("Phrases = %d, want exactly %d", st.Phrases, want)
	}
	if want := uint64(goroutines * workersPer); st.Checkouts != want {
		t.Errorf("Checkouts = %d, want exactly %d (one per worker per batch)", st.Checkouts, want)
	}
	if st.Created == 0 || st.Created > goroutines*uint64(workersPer) {
		t.Errorf("Created = %d, want in [1, %d]", st.Created, goroutines*workersPer)
	}

	// Single-phrase and single-recipe calls check out one environment
	// each.
	e.EstimateIngredient("2 cups flour")
	if _, err := e.EstimateRecipe(context.Background(), inputs[0]); err != nil {
		t.Fatal(err)
	}
	after := e.EnvStats()
	if got := after.Checkouts - st.Checkouts; got != 2 {
		t.Errorf("Checkouts grew by %d over one phrase and one recipe, want 2", got)
	}
	if got, want := after.Phrases-st.Phrases, uint64(1+len(inputs[0].Phrases)); got != want {
		t.Errorf("Phrases grew by %d, want %d", got, want)
	}
}

// TestEstimateRecipesSharedWorkers: the recipe-corpus path runs on the
// estimator's worker environments; outcomes must match the sequential
// recipe API exactly. At workers=4 on a caching estimator this is the
// work-stealing pool serving repeats through the shared cache.
func TestEstimateRecipesSharedWorkers(t *testing.T) {
	corpus, phrases := testCorpus(t, 30)
	inputs := recipeInputs(corpus, phrases)
	want := sequentialRecipes(inputs)
	e, err := New(usda.Seed(), nil, Options{CacheSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		for i, o := range e.EstimateRecipes(inputs, workers) {
			if got := renderResult(o.Result, o.Err); got != want[i] {
				t.Fatalf("workers=%d recipe %d diverged:\n got: %s\nwant: %s", workers, i, got, want[i])
			}
		}
	}
}
