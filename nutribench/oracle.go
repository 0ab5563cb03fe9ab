package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"

	"nutriprofile/internal/core"
)

// recipeFields are what the oracle reads from every recipe response
// line without decoding it in full.
type recipeFields struct {
	kcal   float64 // per_serving.energy_kcal
	mapped float64 // mapped_fraction
}

var (
	errorPrefix  = []byte(`{"error"`)
	recipePrefix = []byte(`{"servings":`)
	recipeSuffix = []byte(`]}`)
	ingredientAt = []byte(`{"phrase":`)
)

// scanRecipe checks the shape of one recipe response — not an error
// envelope, one ingredient object per input line, object closed — and
// reads its per-serving kcal and mapped fraction.
func scanRecipe(line []byte, ingredients int) (recipeFields, error) {
	var f recipeFields
	if bytes.HasPrefix(line, errorPrefix) {
		return f, fmt.Errorf("error response: %.200s", line)
	}
	if !bytes.HasPrefix(line, recipePrefix) || !bytes.HasSuffix(line, recipeSuffix) {
		return f, fmt.Errorf("not a recipe response: %.200s", line)
	}
	if n := bytes.Count(line, ingredientAt); n != ingredients {
		return f, fmt.Errorf("response lists %d ingredients, request had %d", n, ingredients)
	}
	var err error
	if f.mapped, err = numberAfter(line, `"mapped_fraction":`); err != nil {
		return f, err
	}
	if f.kcal, err = numberAfter(line, `"per_serving":{"energy_kcal":`); err != nil {
		return f, err
	}
	return f, nil
}

func numberAfter(line []byte, key string) (float64, error) {
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("response has no %s", key)
	}
	rest := line[i+len(key):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0, fmt.Errorf("unterminated %s", key)
	}
	v, err := strconv.ParseFloat(string(rest[:end]), 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", key, err)
	}
	return v, nil
}

// quality accumulates the paper's two quality figures over the first
// response seen for each recipe.
type quality struct {
	seen          []bool
	lines, mapped int
	errSum        float64
	errN          int
}

func newQuality(recipes int) *quality { return &quality{seen: make([]bool, recipes)} }

func (q *quality) add(idx int, r *recipe, f recipeFields) {
	if q.seen[idx] {
		return
	}
	q.seen[idx] = true
	n := len(r.Ingredients)
	q.lines += n
	q.mapped += int(math.Round(f.mapped * float64(n)))
	if f.mapped == 1 {
		q.errSum += math.Abs(f.kcal - r.GoldKcal)
		q.errN++
	}
}

// kcalErr is the mean |estimate - gold| kcal per serving over fully
// mapped recipes; mappedFrac is the share of ingredient lines mapped.
func (q *quality) kcalErr() float64 {
	if q.errN == 0 {
		return math.NaN()
	}
	return q.errSum / float64(q.errN)
}

func (q *quality) mappedFrac() float64 {
	if q.lines == 0 {
		return math.NaN()
	}
	return float64(q.mapped) / float64(q.lines)
}

// oracle checks a run's responses. Every bulk line is shape-checked as
// it arrives; a seeded sample of recipes, and the first response to
// every interactive pool item, are kept and re-estimated in process
// after the run, where kcal and grams must match exactly. Repeated
// interactive responses must equal the first byte for byte.
type oracle struct {
	in       *inputs
	sampleOf func(idx int) bool

	mu       sync.Mutex
	qual     *quality
	samples  map[int][]byte // bulk recipe index → response line
	phrases  map[int][]byte // pool phrase index → first response body
	recipes  map[int][]byte // pool recipe index → first response body
	failures []string
}

func newOracle(in *inputs, seed int64) *oracle {
	return &oracle{
		in:       in,
		sampleOf: func(idx int) bool { return mix64(uint64(seed)^uint64(idx)*0x9e3779b97f4a7c15)%64 == 0 },
		qual:     newQuality(len(in.bulk)),
		samples:  map[int][]byte{},
		phrases:  map[int][]byte{},
		recipes:  map[int][]byte{},
	}
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// bulkLine checks one /v1/batch response line for recipe idx.
func (o *oracle) bulkLine(pass, idx int, line []byte) error {
	r := &o.in.bulk[idx]
	f, err := scanRecipe(line, len(r.Ingredients))
	if err != nil {
		return err
	}
	if pass > 0 {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.qual.add(idx, r, f)
	if o.sampleOf(idx) {
		o.samples[idx] = append([]byte(nil), line...)
	}
	return nil
}

// interactive checks one /v1/estimate or /v1/recipe response body for
// pool item idx.
func (o *oracle) interactive(isRecipe bool, idx int, body []byte) error {
	seen := o.phrases
	if isRecipe {
		ri := o.in.poolRecipes[idx]
		f, err := scanRecipe(bytes.TrimSpace(body), len(o.in.bulk[ri].Ingredients))
		if err != nil {
			return err
		}
		seen = o.recipes
		o.mu.Lock()
		defer o.mu.Unlock()
		if _, ok := seen[idx]; !ok {
			o.qual.add(ri, &o.in.bulk[ri], f)
		}
	} else {
		if !bytes.HasPrefix(body, []byte(`{"phrase":`)) {
			return fmt.Errorf("not an estimate response: %.200s", body)
		}
		o.mu.Lock()
		defer o.mu.Unlock()
	}
	if first, ok := seen[idx]; ok {
		if !bytes.Equal(first, body) {
			return fmt.Errorf("response to pool item %d changed between requests", idx)
		}
		return nil
	}
	seen[idx] = append([]byte(nil), body...)
	return nil
}

func (o *oracle) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// wireProfile and wireEstimate are the fields of a response the exact
// check compares.
type wireProfile struct {
	EnergyKcal float64 `json:"energy_kcal"`
}

type wireEstimate struct {
	Grams   float64     `json:"grams"`
	Mapped  bool        `json:"mapped"`
	Profile wireProfile `json:"profile"`
}

type wireRecipeResponse struct {
	Total       wireProfile    `json:"total"`
	PerServing  wireProfile    `json:"per_serving"`
	Ingredients []wireEstimate `json:"ingredients"`
}

// verify re-estimates every kept response in process through est,
// which must be built over the server's image with the options the
// server runs, and returns how many responses it compared.
func (o *oracle) verify(est *core.Estimator) (int, error) {
	checked := 0
	for idx, line := range o.samples {
		if err := o.verifyRecipe(est, idx, line); err != nil {
			return checked, fmt.Errorf("bulk recipe %d: %w", idx, err)
		}
		checked++
	}
	for idx, body := range o.recipes {
		if err := o.verifyRecipe(est, o.in.poolRecipes[idx], body); err != nil {
			return checked, fmt.Errorf("interactive recipe %d: %w", idx, err)
		}
		checked++
	}
	for idx, body := range o.phrases {
		var got wireEstimate
		if err := json.Unmarshal(body, &got); err != nil {
			return checked, fmt.Errorf("interactive phrase %d: %w", idx, err)
		}
		want := est.EstimateIngredient(o.in.phrases[idx])
		if got.Grams != want.Grams || got.Profile.EnergyKcal != want.Profile.EnergyKcal || got.Mapped != want.Mapped {
			return checked, fmt.Errorf("interactive phrase %q: server grams %v kcal %v, in process %v and %v",
				o.in.phrases[idx], got.Grams, got.Profile.EnergyKcal, want.Grams, want.Profile.EnergyKcal)
		}
		checked++
	}
	return checked, nil
}

func (o *oracle) verifyRecipe(est *core.Estimator, idx int, line []byte) error {
	var got wireRecipeResponse
	if err := json.Unmarshal(line, &got); err != nil {
		return err
	}
	r := &o.in.bulk[idx]
	in := []core.RecipeInput{{Phrases: r.Ingredients, Servings: r.Servings, Method: r.Method}}
	out := make([]core.RecipeOutcome, 1)
	arena := make([]core.IngredientResult, len(r.Ingredients))
	if err := est.EstimateRecipesInto(context.Background(), in, 1, out, arena); err != nil {
		return err
	}
	if out[0].Err != nil {
		return out[0].Err
	}
	want := out[0].Result
	if got.Total.EnergyKcal != want.Total.EnergyKcal || got.PerServing.EnergyKcal != want.PerServing.EnergyKcal {
		return fmt.Errorf("server kcal total %v per serving %v, in process %v and %v",
			got.Total.EnergyKcal, got.PerServing.EnergyKcal, want.Total.EnergyKcal, want.PerServing.EnergyKcal)
	}
	if len(got.Ingredients) != len(want.Ingredients) {
		return errors.New("ingredient count differs from in-process estimate")
	}
	for i := range got.Ingredients {
		if got.Ingredients[i].Grams != want.Ingredients[i].Grams {
			return fmt.Errorf("line %q: server %v g, in process %v g", r.Ingredients[i], got.Ingredients[i].Grams, want.Ingredients[i].Grams)
		}
	}
	return nil
}
