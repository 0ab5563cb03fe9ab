package core

// Recipe-level metamorphic relations over a generated corpus: a recipe
// is the sum of its lines (§II), so its totals cannot depend on line
// order, the per-serving profile times the servings is the total, the
// single-phrase, single-recipe and batch entry points are one
// computation, and a hot swap to an identical database changes no
// answer.

import (
	"context"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"nutriprofile/internal/nutrition"
	"nutriprofile/internal/recipedb"
	"nutriprofile/internal/usda"
)

// profileFields lists a profile's nutrient values in field order.
func profileFields(p nutrition.Profile) []float64 {
	v := reflect.ValueOf(p)
	out := make([]float64, v.NumField())
	for i := range out {
		out[i] = v.Field(i).Float()
	}
	return out
}

// relClose reports whether a and b agree within tol relative error.
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// profilesClose compares two profiles field by field and names the
// first field that differs by more than tol relative error.
func profilesClose(a, b nutrition.Profile, tol float64) (string, bool) {
	fa, fb := profileFields(a), profileFields(b)
	for i := range fa {
		if !relClose(fa[i], fb[i], tol) {
			return reflect.TypeOf(a).Field(i).Name, false
		}
	}
	return "", true
}

func TestRecipeMetamorphic(t *testing.T) {
	corpus, err := recipedb.Generate(recipedb.Config{NumRecipes: 2000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]RecipeInput, len(corpus.Recipes))
	for i := range corpus.Recipes {
		rec := &corpus.Recipes[i]
		phrases := make([]string, len(rec.Ingredients))
		for j := range rec.Ingredients {
			phrases[j] = rec.Ingredients[j].Phrase
		}
		inputs[i] = RecipeInput{Phrases: phrases, Servings: rec.Servings, Method: rec.Method}
	}
	e, err := New(usda.Seed(), nil, Options{CacheSize: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	e.ObserveUnits(corpus.Phrases())

	const tol = 1e-9
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(42, 1))
	single := make([]RecipeResult, len(inputs))
	for i, in := range inputs {
		res, err := e.EstimateRecipe(ctx, in)
		if err != nil {
			t.Fatalf("recipe %d: %v", i, err)
		}
		single[i] = res

		// Line order: the totals are a sum, so shuffling the lines
		// moves them by float rounding only; the mapped share is a
		// count and must not move at all.
		shuffled := in
		shuffled.Phrases = append([]string(nil), in.Phrases...)
		rng.Shuffle(len(shuffled.Phrases), func(a, b int) {
			shuffled.Phrases[a], shuffled.Phrases[b] = shuffled.Phrases[b], shuffled.Phrases[a]
		})
		sres, err := e.EstimateRecipe(ctx, shuffled)
		if err != nil {
			t.Fatalf("shuffled recipe %d: %v", i, err)
		}
		if f, ok := profilesClose(sres.Total, res.Total, tol); !ok {
			t.Errorf("recipe %d: shuffling its lines moved Total.%s: %+v vs %+v", i, f, sres.Total, res.Total)
		}
		if sres.MappedFraction != res.MappedFraction {
			t.Errorf("recipe %d: shuffling its lines moved MappedFraction %v → %v", i, res.MappedFraction, sres.MappedFraction)
		}

		// Servings: per serving × servings is the total.
		if f, ok := profilesClose(res.PerServing.Scale(float64(res.Servings)), res.Total, tol); !ok {
			t.Errorf("recipe %d: PerServing.%s × %d servings differs from Total", i, f, res.Servings)
		}
	}

	// Entry points: the batch path at any worker count is the
	// single-recipe path, field for field.
	for _, workers := range []int{1, 4} {
		for i, o := range e.EstimateRecipes(inputs, workers) {
			if o.Err != nil {
				t.Fatalf("workers=%d recipe %d: %v", workers, i, o.Err)
			}
			if !reflect.DeepEqual(o.Result, single[i]) {
				t.Fatalf("workers=%d recipe %d: EstimateRecipes differs from EstimateRecipe:\n got: %+v\nwant: %+v",
					workers, i, o.Result, single[i])
			}
		}
	}

	// Interactive equals batch: every line of a recipe is the
	// single-phrase estimate of that line.
	checkLines := func(when string) {
		t.Helper()
		for i, res := range single {
			for j, want := range res.Ingredients {
				if got := e.EstimateIngredient(inputs[i].Phrases[j]); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: recipe %d line %d: EstimateIngredient differs from EstimateRecipe:\n got: %+v\nwant: %+v",
						when, i, j, got, want)
				}
			}
		}
	}
	checkLines("before swap")

	// Hot swap: installing an identical database purges both caches and
	// builds a new matcher, so every environment's session is re-pinned
	// on its next checkout. Each entry point then recomputes its answers
	// from scratch, and none may move.
	swap := func() {
		t.Helper()
		if _, err := e.Install(usda.Seed(), nil, "identical"); err != nil {
			t.Fatal(err)
		}
	}
	swap()
	for i, o := range e.EstimateRecipes(inputs, 4) {
		if o.Err != nil || !reflect.DeepEqual(o.Result, single[i]) {
			t.Fatalf("after swap: recipe %d differs (err %v):\n got: %+v\nwant: %+v", i, o.Err, o.Result, single[i])
		}
	}
	swap()
	checkLines("after swap")
	if w := e.freeEnvs[len(e.freeEnvs)-1]; w.m != e.Matcher() {
		t.Fatal("the last environment returned is still pinned to a retired matcher")
	}
}
