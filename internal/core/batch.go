package core

// Recipe-level estimation. One recipe is the unit of work: its lines
// are estimated in order on one goroutine, and parallelism exists only
// across recipes (EstimateRecipes, EstimateRecipesInto) and across the
// serving layer's concurrent requests. Output is always input-ordered
// and byte-identical at every worker count, so callers can parallelize
// corpus-scale runs without giving up determinism. DESIGN.md §12
// records why lines within a recipe are not dispatched in parallel.
//
// Every entry point — single phrase, single recipe, recipe batch and
// the unit-statistics pass — runs on estimator-owned worker
// environments (scratch + pinned match session) from one bounded free
// list, not sync.Pool scratches: pool per-P caches drain under GC and
// goroutine migration, and every drained checkout re-warms a cold
// environment (DESIGN.md §12 has the measurement).

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"nutriprofile/internal/match"
	"nutriprofile/internal/memo"
	"nutriprofile/internal/pipeline"
	"nutriprofile/internal/yield"
)

// maxFreeEnvs bounds the worker-environment free list: more
// environments than this can exist transiently (concurrent batches each
// holding several), but only this many are retained.
const maxFreeEnvs = 64

// env is one worker environment: the per-goroutine NLP scratch arena
// plus a match session pinned to one matcher (its own scoring arena).
// Environments are checked out once per phrase, recipe or batch worker
// and returned warm; m records which matcher the session belongs to so
// a checkout after a snapshot swap re-pins instead of scoring against
// the retired index.
type env struct {
	sc      pipeline.Scratch
	sess    *match.Session
	m       *match.Matcher
	phrases uint64 // phrases estimated since checkout; putEnv adds them to EnvStats
}

// envPool is the Estimator's worker-environment free list and its
// counters; embedded by value.
type envPool struct {
	// Every estimate takes envMu twice from whichever core it runs on.
	// The pad keeps that written cache line apart from the estimator's
	// read-mostly fields (snapshot pointer, options, cache pointers),
	// which every estimate reads too.
	_        [64]byte
	envMu    sync.Mutex
	freeEnvs []*env
	envStats EnvStats // under envMu
}

// EnvStats is the observability snapshot of the worker-environment
// free list (nutriserve's GET /v1/stats exposes it as "env").
type EnvStats struct {
	Checkouts uint64 `json:"checkouts"` // environment checkouts: one per phrase, recipe or batch worker
	Created   uint64 `json:"created"`   // environments ever created
	Phrases   uint64 `json:"phrases"`   // phrases estimated on environments
}

// EnvStats reports the free list's counters. Phrases is exact once
// in-flight calls drain (each checkout adds its count on return).
func (e *Estimator) EnvStats() EnvStats {
	e.envMu.Lock()
	defer e.envMu.Unlock()
	return e.envStats
}

// getEnv checks a worker environment out of the estimator-owned free
// list, creating one when the list is empty. LIFO: the most recently
// returned (warmest) environment is reused first. snap is the caller's
// pinned snapshot; an environment whose session was pinned to a
// now-retired matcher is re-pinned before reuse, so a worker never
// scores against a different index than the snapshot it estimates with.
func (e *Estimator) getEnv(snap *Snapshot) *env {
	e.envMu.Lock()
	e.envStats.Checkouts++
	n := len(e.freeEnvs)
	if n == 0 {
		e.envStats.Created++
		e.envMu.Unlock()
		return &env{sess: snap.matcher.NewSession(), m: snap.matcher}
	}
	w := e.freeEnvs[n-1]
	e.freeEnvs[n-1] = nil
	e.freeEnvs = e.freeEnvs[:n-1]
	e.envMu.Unlock()
	if w.m != snap.matcher {
		w.sess.Close()
		w.sess, w.m = snap.matcher.NewSession(), snap.matcher
	}
	return w
}

// putEnv returns an environment and adds its phrase count to the
// totals: one locked update per checkout, so the hot path counts in a
// plain field. Beyond maxFreeEnvs the environment is dismantled (the
// session's arena goes back to the matcher pool) and dropped.
func (e *Estimator) putEnv(w *env) {
	e.envMu.Lock()
	e.envStats.Phrases += w.phrases
	w.phrases = 0
	if len(e.freeEnvs) < maxFreeEnvs {
		e.freeEnvs = append(e.freeEnvs, w)
		e.envMu.Unlock()
		return
	}
	e.envMu.Unlock()
	w.sess.Close()
}

// normWorkers clamps a requested worker count: <= 0 selects
// GOMAXPROCS, and the pool never exceeds the number of work items.
func normWorkers(workers, items int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > items {
		workers = items
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// forEachIndexCtx runs fn(i, w) for i in [0, n) on a bounded worker
// pool. Indices are handed out by an atomic counter, so the pool stays
// busy even when per-item cost is skewed (cache hits vs full matches).
// Each worker checks one environment out of the estimator's free list —
// pinned to snap's matcher — and reuses it for every index it claims.
// Once ctx is done, workers stop claiming new indices and the call
// returns ctx's error.
func (e *Estimator) forEachIndexCtx(ctx context.Context, snap *Snapshot, n, workers int, fn func(int, *env)) error {
	workers = normWorkers(workers, n)
	done := ctx.Done()
	if workers == 1 {
		w := e.getEnv(snap)
		defer e.putEnv(w)
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			fn(i, w)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			w := e.getEnv(snap)
			defer e.putEnv(w)
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i, w)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// RecipeInput is one recipe to estimate.
type RecipeInput struct {
	Phrases  []string
	Servings int
	// Method, when not yield.None, applies the cooking-yield correction
	// (the Bognár-style adjustment the paper cites as the accuracy gap
	// of the raw-ingredient-sum approximation) to the recipe's totals.
	Method yield.Method
}

// RecipeOutcome pairs a recipe's result with its per-recipe validation
// error, so one malformed recipe (no ingredients, bad servings) does
// not abort a corpus-scale run.
type RecipeOutcome struct {
	Result RecipeResult
	Err    error
}

// estimateRecipeWorker estimates one recipe's lines in order on an
// already-held worker environment. It is the only function that
// estimates a recipe: every entry point reaches it through
// EstimateRecipesInto. ingredients is the caller-provided result
// destination, len(r.Phrases) long. A done ctx stops the recipe at its
// next line with ctx's error as the outcome.
func (e *Estimator) estimateRecipeWorker(ctx context.Context, v view, r RecipeInput, w *env, ingredients []IngredientResult) RecipeOutcome {
	if len(r.Phrases) == 0 {
		return RecipeOutcome{Err: errors.New("core: recipe has no ingredients")}
	}
	if r.Servings <= 0 {
		return RecipeOutcome{Err: fmt.Errorf("core: invalid servings %d", r.Servings)}
	}
	done := ctx.Done()
	for i, p := range r.Phrases {
		select {
		case <-done:
			return RecipeOutcome{Err: ctx.Err()}
		default:
		}
		ingredients[i] = e.estimateCached(v, p, w)
		w.phrases++
	}
	res := aggregateRecipe(ingredients, r.Servings)
	res.Total = yield.Apply(res.Total, r.Method)
	res.PerServing = yield.Apply(res.PerServing, r.Method)
	return RecipeOutcome{Result: res}
}

// EstimateRecipe estimates one recipe's lines in order on the calling
// goroutine and sums them, applying r.Method's cooking-yield
// correction. The error is the recipe's validation error (no
// ingredients, servings <= 0) or, when ctx is done before the last
// line, ctx's error.
func (e *Estimator) EstimateRecipe(ctx context.Context, r RecipeInput) (RecipeResult, error) {
	out := make([]RecipeOutcome, 1)
	if err := e.EstimateRecipesInto(ctx, []RecipeInput{r}, 1, out, make([]IngredientResult, len(r.Phrases))); err != nil {
		return RecipeResult{}, err
	}
	return out[0].Result, out[0].Err
}

// EstimateRecipes estimates a corpus of recipes on a bounded worker
// pool sharing this Estimator, one recipe per worker at a time.
// Outcomes are input-ordered and byte-identical to calling
// EstimateRecipe on each recipe in turn; workers <= 0 selects
// GOMAXPROCS.
func (e *Estimator) EstimateRecipes(recipes []RecipeInput, workers int) []RecipeOutcome {
	if len(recipes) == 0 {
		return nil
	}
	total := 0
	for i := range recipes {
		total += len(recipes[i].Phrases)
	}
	out := make([]RecipeOutcome, len(recipes))
	// Background never ends and the buffers are sized above, so this
	// cannot fail.
	_ = e.EstimateRecipesInto(context.Background(), recipes, workers, out, make([]IngredientResult, total))
	return out
}

// EstimateRecipesInto is EstimateRecipes on caller-owned memory: the
// windowed feed behind the streaming /v1/batch endpoint, whose bulk
// streams reuse one result arena across every window instead of
// allocating per line. recipes[i] is estimated into out[i], and each
// recipe's per-ingredient results are carved out of arena — which must
// hold at least the window's total phrase count — so a warm window
// performs no heap allocation in this layer. Outcomes (including their
// Ingredients slices) alias arena and are valid until the caller reuses
// it. On a done ctx workers stop claiming recipes, a recipe in progress
// stops at its next line, the error is ctx.Err(), and out holds an
// unpredictable prefix.
func (e *Estimator) EstimateRecipesInto(ctx context.Context, recipes []RecipeInput, workers int, out []RecipeOutcome, arena []IngredientResult) error {
	if len(recipes) == 0 {
		return nil
	}
	if len(out) < len(recipes) {
		return fmt.Errorf("core: out holds %d outcomes for %d recipes", len(out), len(recipes))
	}
	total := 0
	for i := range recipes {
		total += len(recipes[i].Phrases)
	}
	if total > len(arena) {
		return fmt.Errorf("core: arena holds %d results for %d ingredient lines", len(arena), total)
	}
	// Carve disjoint arena windows up front so workers write their
	// recipe's results without coordination. The empty destination is
	// parked in out[i] (workers overwrite out[i] wholesale, reclaiming
	// the capacity through the carve below).
	off := 0
	for i := range recipes {
		n := len(recipes[i].Phrases)
		out[i] = RecipeOutcome{}
		out[i].Result.Ingredients = arena[off : off : off+n]
		off += n
	}
	// One pin per call: every recipe — and every worker's match
	// session — resolves against the same snapshot, even if a reload
	// lands mid-call.
	v := e.pin()
	if normWorkers(workers, len(recipes)) == 1 {
		// Inline sequential loop rather than forEachIndexCtx: the closure
		// handed to the pool escapes (the parallel branch ships it to
		// goroutines), which would cost one heap allocation per window —
		// the difference between the bulk hot path's zero-alloc pin and
		// almost-zero.
		w := e.getEnv(v.snap)
		defer e.putEnv(w)
		for i := range recipes {
			dst := out[i].Result.Ingredients
			out[i] = e.estimateRecipeWorker(ctx, v, recipes[i], w, dst[:len(recipes[i].Phrases)])
			if out[i].Err != nil && ctx.Err() != nil {
				return ctx.Err()
			}
		}
		return nil
	}
	return e.forEachIndexCtx(ctx, v.snap, len(recipes), workers, func(i int, w *env) {
		dst := out[i].Result.Ingredients
		out[i] = e.estimateRecipeWorker(ctx, v, recipes[i], w, dst[:len(recipes[i].Phrases)])
	})
}

// CacheStats reports the phrase- and match-level memoization counters.
// Both are zero-valued when Options.CacheSize == 0.
func (e *Estimator) CacheStats() (phrase, match memo.Stats) {
	if e.phraseCache != nil {
		phrase = e.phraseCache.Stats()
	}
	if e.matchCache != nil {
		match = e.matchCache.Stats()
	}
	return phrase, match
}

// MatcherStats reports the description matcher's index shape (documents,
// vocabulary, postings) and arena-pool counters, alongside CacheStats the
// observability surface of the estimation hot path (cmd/nutriprofile
// -stats).
func (e *Estimator) MatcherStats() match.MatcherStats {
	return e.snap.Load().matcher.Stats()
}
