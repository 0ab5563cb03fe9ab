package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"nutriprofile/internal/ner"
	"nutriprofile/internal/usda"
)

// TestEstimateRecipeContextLinesMatchSequential pins each line of a
// recipe estimated on a live context to EstimateIngredient.
func TestEstimateRecipeContextLinesMatchSequential(t *testing.T) {
	e := NewDefault()
	phrases := []string{
		"2 cups all-purpose flour",
		"1 cup sugar",
		"2 eggs",
		"1/2 cup butter , softened",
		"1 tsp salt",
	}
	got, err := e.EstimateRecipe(context.Background(), RecipeInput{Phrases: phrases, Servings: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ingredients) != len(phrases) {
		t.Fatalf("len %d vs %d", len(got.Ingredients), len(phrases))
	}
	for i, p := range phrases {
		want := e.EstimateIngredient(p)
		if r := got.Ingredients[i]; r.Grams != want.Grams || r.Profile != want.Profile || r.Mapped != want.Mapped {
			t.Fatalf("phrase %d diverges: %+v vs %+v", i, r, want)
		}
	}
}

// TestEstimateRecipeContextCancelled pre-cancels the context: no line
// may be estimated and the context error must surface, from the
// single-recipe entry point and the batch one at every worker count.
func TestEstimateRecipeContextCancelled(t *testing.T) {
	e := NewDefault()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := RecipeInput{Phrases: []string{"1 cup sugar", "2 eggs"}, Servings: 2}
	if _, err := e.EstimateRecipe(ctx, r); !errors.Is(err, context.Canceled) {
		t.Fatalf("EstimateRecipe: err %v, want context.Canceled", err)
	}
	for _, workers := range []int{1, 4} {
		recipes := []RecipeInput{r, r, r, r}
		out := make([]RecipeOutcome, len(recipes))
		err := e.EstimateRecipesInto(ctx, recipes, workers, out, make([]IngredientResult, 8))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err %v, want context.Canceled", workers, err)
		}
	}
	if st := e.EnvStats(); st.Phrases != 0 {
		t.Fatalf("%d phrases estimated on a cancelled context", st.Phrases)
	}
}

// TestEstimateRecipeContextCancelMidway cancels from inside the work
// function and asserts the pool stops claiming new items well short of
// the full batch.
func TestEstimateRecipeContextCancelMidway(t *testing.T) {
	e := NewDefault()
	const n = 10000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	err := e.forEachIndexCtx(ctx, e.pin().snap, n, 4, func(i int, _ *env) {
		if ran.Add(1) == 8 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	// Each of the 4 workers can finish at most the item it already
	// claimed; anything near n means cancellation did not propagate.
	if got := ran.Load(); got >= n/2 {
		t.Fatalf("ran %d of %d items after cancellation", got, n)
	}
}

// cancelTagger is the rule tagger that cancels a context on its at-th
// call, so a test can cancel from inside a recipe's line loop.
type cancelTagger struct {
	calls  *atomic.Int64
	at     int64
	cancel context.CancelFunc
}

func (c cancelTagger) Tag(tokens []string) []ner.Label {
	if c.calls.Add(1) == c.at {
		c.cancel()
	}
	return ner.RuleTagger{}.Tag(tokens)
}

// TestEstimateRecipeCancelMidRecipe pins the per-line cancellation
// check: a long recipe whose context is cancelled while its 8th line is
// being tagged stops before the 9th line and reports the context error.
func TestEstimateRecipeCancelMidRecipe(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	e, err := New(usda.Seed(), cancelTagger{calls: &calls, at: 8, cancel: cancel}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	phrases := make([]string, 256)
	for i := range phrases {
		phrases[i] = "2 cups flour"
	}
	_, err = e.EstimateRecipe(ctx, RecipeInput{Phrases: phrases, Servings: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if got := calls.Load(); got != 8 {
		t.Fatalf("tagged %d lines, want exactly 8: the recipe did not stop at its next line", got)
	}
}

func TestEstimateRecipeContextValidation(t *testing.T) {
	e := NewDefault()
	if _, err := e.EstimateRecipe(context.Background(), RecipeInput{Servings: 4}); err == nil {
		t.Fatal("expected error for empty recipe")
	}
	if _, err := e.EstimateRecipe(context.Background(), RecipeInput{Phrases: []string{"salt"}}); err == nil {
		t.Fatal("expected error for zero servings")
	}
}

// TestEstimateBatchContextEmpty: an empty batch is a no-op on both batch
// entry points, even under a cancelled context.
func TestEstimateBatchContextEmpty(t *testing.T) {
	e := NewDefault()
	if err := e.EstimateRecipesInto(context.Background(), nil, 4, nil, nil); err != nil {
		t.Fatalf("EstimateRecipesInto(nil) = %v, want nil", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.EstimateRecipesInto(ctx, nil, 4, nil, nil); err != nil {
		t.Fatalf("EstimateRecipesInto(nil) under cancelled ctx = %v, want nil", err)
	}
	if got := e.EstimateRecipes(nil, 4); got != nil {
		t.Fatalf("EstimateRecipes(nil) = %v, want nil", got)
	}
}

// TestEstimateRecipeContextDeadline gives a huge recipe a 1ns budget.
func TestEstimateRecipeContextDeadline(t *testing.T) {
	e := NewDefault()
	phrases := make([]string, 256)
	for i := range phrases {
		phrases[i] = "2 cups flour"
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, err := e.EstimateRecipe(ctx, RecipeInput{Phrases: phrases, Servings: 4})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want context.DeadlineExceeded", err)
	}
}

// TestEstimateRecipeContextMatchesPlain pins a recipe estimated on a
// live context to the sum of its lines estimated one by one.
func TestEstimateRecipeContextMatchesPlain(t *testing.T) {
	e := NewDefault()
	phrases := []string{"2 cups all-purpose flour", "1 cup sugar", "2 eggs"}
	got, err := e.EstimateRecipe(context.Background(), RecipeInput{Phrases: phrases, Servings: 4})
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]IngredientResult, len(phrases))
	for i, p := range phrases {
		lines[i] = e.EstimateIngredient(p)
	}
	want := aggregateRecipe(lines, 4)
	if got.Total != want.Total || got.PerServing != want.PerServing || got.MappedFraction != want.MappedFraction {
		t.Fatalf("context recipe diverges: %+v vs %+v", got, want)
	}
}
