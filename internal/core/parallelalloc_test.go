package core

// Pins the fix for the parallel allocation leak: at -cpu 4 the old
// sync.Pool-backed batch path inflated from ~670 to ~1374 allocs/op
// because oversubscription drained the pool's per-P caches and every
// checkout re-warmed a cold scratch (re-interning, memo rebuilds, arena
// regrowth). Worker environments are estimator-owned now, so a warm
// parallel batch allocates only fixed per-batch machinery (goroutines,
// WaitGroup, the work closure) — nothing per phrase.

import (
	"context"
	"testing"

	"nutriprofile/internal/usda"
)

// TestParallelBatchZeroAllocPerPhrase: after one warming sweep, a
// 4-worker recipe batch on caller-owned memory must stay under a small fixed allocation
// budget regardless of batch size — i.e. zero allocations per phrase.
// A re-warming regression costs multiple allocations per phrase and
// blows the budget by orders of magnitude.
func TestParallelBatchZeroAllocPerPhrase(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	e, err := New(usda.Seed(), nil, Options{CacheSize: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	corpus, phrases := testCorpus(t, 40)
	var inputs []RecipeInput
	for rep := 0; rep < 3; rep++ {
		inputs = append(inputs, recipeInputs(corpus, phrases)...)
	}
	lines := 0
	for _, in := range inputs {
		lines += len(in.Phrases)
	}
	out := make([]RecipeOutcome, len(inputs))
	arena := make([]IngredientResult, lines)

	const workers = 4
	ctx := context.Background()
	// Warm caches and environments.
	if err := e.EstimateRecipesInto(ctx, inputs, workers, out, arena); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := e.EstimateRecipesInto(ctx, inputs, workers, out, arena); err != nil {
			t.Fatal(err)
		}
	})
	// Fixed per-batch overhead: `workers` goroutine closures, the work
	// closure and the WaitGroup. 24 is several times that machinery
	// and still ~0.04 allocs per phrase for this input; the pre-fix
	// behavior (scratch re-warming) costs multiple allocs per *phrase*
	// and lands thousands over budget.
	if maxAllocs := 24.0; allocs > maxAllocs {
		t.Fatalf("warm %d-worker batch of %d phrases allocates %v per run, want <= %v",
			workers, lines, allocs, maxAllocs)
	}
}
