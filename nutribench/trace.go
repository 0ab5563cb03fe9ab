package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"nutriprofile/internal/core"
	"nutriprofile/internal/match"
	"nutriprofile/internal/memo"
	"nutriprofile/internal/ner"
	"nutriprofile/internal/nutrition"
	"nutriprofile/internal/pipeline"
	"nutriprofile/internal/server"
	"nutriprofile/internal/units"
	"nutriprofile/internal/usda"
	"nutriprofile/internal/usda/bake"
)

const (
	// replayPhrases and replayRecipes size the traced replay's sample of
	// the workload's inputs, taken in send order.
	replayPhrases = 20000
	replayRecipes = 2048
	// batchLines is the /v1/batch body size the handler is timed on,
	// nutriserve's default window.
	batchLines = 64
	// repeats is how often the one-off costs (image load, install) are
	// timed; their medians are reported.
	repeats = 5
)

// stages are the per-phrase pipeline stages the replay times, in the
// order core runs them: units.quantity is the quantity parse and the
// NER unit's weight-row lookup, core's common path, including the lemma
// pass unit resolution runs when its per-token memo misses. With the
// rule tagger the estimation path tags no parts of speech, so
// pipeline.tag_lemma is that lemma pass timed on its own; it is not a
// separate step of core's path and stays out of the stage sum.
var stages = []string{"pipeline.tokenize", "ner.extract", "match.rank", "units.quantity", "nutrition.aggregate"}

const (
	sTok = iota
	sExtract
	sMatch
	sUnits
	sAggregate
	nStages
)

// epoch anchors stamp, the replay's clock: a monotonic reading is about
// half the cost of a full time.Now.
var epoch = time.Now()

func stamp() time.Duration { return time.Since(epoch) }

// replaySample is the part of a workload's inputs the replay runs.
func replaySample(in *inputs) (phrases []string, recipes []*recipe) {
	for i := 0; i < replayRecipes && i < len(in.bulk); i++ {
		recipes = append(recipes, &in.bulk[i])
	}
	for i := 0; len(phrases) < replayPhrases && i < len(in.bulk); i++ {
		phrases = append(phrases, in.bulk[i].Ingredients...)
	}
	return phrases, recipes
}

// replay times calls into each package from outside, over a sample of
// the workload's inputs, and adds the per-layer metrics to out. It runs
// after the server has stopped, so nothing else competes for the CPUs.
func replay(in *inputs, image string, e *e2eRun, out map[string]float64) error {
	phrases, recipes := replaySample(in)
	out["replay.phrases"] = float64(len(phrases))
	out["replay.recipes"] = float64(len(recipes))

	var loads []float64
	var ld *bake.Loaded
	for k := 0; k < repeats; k++ {
		t := time.Now()
		var err error
		if ld, err = bake.LoadFile(image); err != nil {
			return err
		}
		loads = append(loads, msSince(t))
	}
	out["bake.load_ms"] = median(loads)

	uncached, err := core.NewWithIndex(ld.DB, nil, core.Options{}, ld.Index, image)
	if err != nil {
		return err
	}
	stageReplay(uncached, phrases, out)

	cached := func() (*core.Estimator, error) {
		return core.NewWithIndex(ld.DB, nil, core.Options{CacheSize: defaultCacheEntries}, ld.Index, image)
	}
	hot, err := cached()
	if err != nil {
		return err
	}
	hotSet := distinct(phrases, 4096)
	for _, p := range hotSet {
		hot.EstimateIngredient(p)
	}
	out["core.hot_ns"] = median(timeEach(hotSet, clockCost(), func(p string) { hot.EstimateIngredient(p) }))

	batch, err := cached()
	if err != nil {
		return err
	}
	if out["core.batch_recipe_ns"], err = timeBatches(batch, recipes); err != nil {
		return err
	}

	memoReplay(phrases, out)
	if err := handlerReplay(cached, in, recipes, e, out); err != nil {
		return err
	}

	var installs []float64
	for k := 0; k < repeats; k++ {
		t := time.Now()
		if _, err := hot.Install(ld.DB, ld.Index, image); err != nil {
			return err
		}
		installs = append(installs, msSince(t))
	}
	out["core.install_ms"] = median(installs)
	return nil
}

func nsSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) }
func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// timeEach times f on each phrase, less the clock's own cost clockNs.
func timeEach(ps []string, clockNs float64, f func(string)) []float64 {
	ns := make([]float64, len(ps))
	for i, p := range ps {
		t := stamp()
		f(p)
		ns[i] = max(0, float64(stamp()-t)-clockNs)
	}
	return ns
}

// distinct returns up to n distinct phrases in first-seen order.
func distinct(ps []string, n int) []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range ps {
		if !seen[p] && len(out) < n {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// stagePass is one pass of the stage replay over the phrases.
type stagePass struct {
	ns        [nStages][]float64 // per stage, one entry per phrase that reached it
	perPhrase []float64          // each phrase's stage sum
	firstRank []float64          // match ns of each distinct query's first call
	queries   map[match.Query]bool
	wall      float64 // ns for the whole pass
}

// stagePassOver runs the pipeline's stages one public call at a time,
// the way core threads them, over every phrase. Timed, it clocks each
// stage and subtracts clockNs, the clock's own cost each interval
// includes, so the figures describe the calls alone; untimed, it only
// measures the whole pass, for the tracing overhead.
func stagePassOver(sc *pipeline.Scratch, m *match.Matcher, db *usda.DB, phrases []string, timed bool, clockNs float64) *stagePass {
	tagger := ner.RuleTagger{}
	ps := &stagePass{queries: map[match.Query]bool{}}
	var acc nutrition.Profile
	var t [nStages + 1]time.Duration
	clock := func(i int) {
		if timed {
			t[i] = stamp()
		}
	}
	start := time.Now()
	for _, p := range phrases {
		clock(0)
		sc.Tokenize(p)
		clock(1)
		ext := sc.Extract(tagger)
		clock(2)
		last := sExtract + 1
		var q match.Query
		if ext.Name != "" {
			q = match.Query{Name: ext.Name, State: ext.State, Temp: ext.Temp, DryFresh: ext.DryFresh}
			res, ok := m.Match(q)
			clock(3)
			last = sMatch + 1
			if ok {
				food, _ := db.ByNDB(res.NDB)
				qty, err := units.ParseQuantity(ext.Quantity)
				if err != nil || qty <= 0 {
					qty = 1
				}
				g := 0.0
				if i := sc.NER.FirstWordIndex(ner.Unit); i >= 0 {
					if unit, known := sc.UnitFor(i); known {
						g, _ = food.GramsForUnit(unit)
					}
				}
				clock(4)
				acc = acc.Add(food.Per100g.ForGrams(g * qty))
				clock(5)
				last = nStages
			}
		}
		if !timed {
			continue
		}
		phraseSum := 0.0
		for st := 0; st < last; st++ {
			d := max(0, float64(t[st+1]-t[st])-clockNs)
			ps.ns[st] = append(ps.ns[st], d)
			phraseSum += d
		}
		ps.perPhrase = append(ps.perPhrase, phraseSum)
		if ext.Name != "" && !ps.queries[q] {
			ps.queries[q] = true
			ps.firstRank = append(ps.firstRank, ps.ns[sMatch][len(ps.ns[sMatch])-1])
		}
	}
	ps.wall = nsSince(start)
	return ps
}

// stageReplay times the stages over phrases and reports each stage's
// median ns per call. match.rank_ns is the median over each distinct
// query's first call and match.calls the distinct queries, since the
// match cache absorbs repeats; the stage shares weigh each median by
// its calls. Timed passes alternate with untimed ones, for the tracing
// overhead, and with passes of the whole uncached pipeline, which the
// stages must add up to: the residual compares, phrase by phrase, the
// fastest of three stage sums with the fastest of three whole calls,
// which keeps interference spikes out of both.
func stageReplay(uncached *core.Estimator, phrases []string, out map[string]float64) {
	m, db := uncached.Matcher(), uncached.DB()
	clockNs := clockCost()
	out["trace.clock_ns"] = clockNs
	var sc pipeline.Scratch
	stagePassOver(&sc, m, db, phrases, false, clockNs) // warm the scratch's memos
	var traced, untimed []float64
	var ps *stagePass
	stageMin := make([]float64, len(phrases))
	uncMin := make([]float64, len(phrases))
	for k := 0; k < 3; k++ {
		ps = stagePassOver(&sc, m, db, phrases, true, clockNs)
		traced = append(traced, ps.wall)
		untimed = append(untimed, stagePassOver(&sc, m, db, phrases, false, clockNs).wall)
		unc := timeEach(phrases, clockNs, func(p string) { uncached.EstimateIngredient(p) })
		for i := range phrases {
			if k == 0 || ps.perPhrase[i] < stageMin[i] {
				stageMin[i] = ps.perPhrase[i]
			}
			if k == 0 || unc[i] < uncMin[i] {
				uncMin[i] = unc[i]
			}
		}
		out["core.uncached_ns"] = median(unc)
	}
	out["trace.overhead_frac"] = median(traced)/median(untimed) - 1
	stageSum, uncSum := 0.0, 0.0
	for i := range phrases {
		stageSum += stageMin[i]
		uncSum += uncMin[i]
	}
	out["core.stage_residual_frac"] = 1 - stageSum/uncSum

	var total float64
	shares := make([]float64, nStages)
	for st := 0; st < nStages; st++ {
		med, calls := median(ps.ns[st]), float64(len(ps.ns[st]))
		if st == sMatch {
			med, calls = median(ps.firstRank), float64(len(ps.queries))
		}
		out[stages[st]+"_ns"] = med
		shares[st] = med * calls
		total += shares[st]
	}
	out["match.calls"] = float64(len(ps.queries))
	out["match.stage_share"] = shares[sMatch] / total
	var table []string
	for st := range stages {
		table = append(table, fmt.Sprintf("%s %.1f%%", stages[st], 100*shares[st]/total))
	}
	fmt.Fprintf(os.Stderr, "nutribench: stage shares (median ns x calls): %s\n", strings.Join(table, ", "))

	// The lemma pass on its own, on a scratch whose memos are warm.
	lemmas := make([]float64, len(phrases))
	for i, p := range phrases {
		sc.Tokenize(p)
		t := stamp()
		sc.Lemmas()
		lemmas[i] = max(0, float64(stamp()-t)-clockNs)
	}
	out["pipeline.tag_lemma_ns"] = median(lemmas)
}

// timeBatches times EstimateRecipesInto over windows of batchLines
// recipes on one worker, as a /v1/batch stream runs them, and returns
// the median ns per recipe.
func timeBatches(est *core.Estimator, recipes []*recipe) (float64, error) {
	var per []float64
	for lo := 0; lo < len(recipes); lo += batchLines {
		hi := min(lo+batchLines, len(recipes))
		ins := make([]core.RecipeInput, 0, hi-lo)
		lines := 0
		for _, r := range recipes[lo:hi] {
			ins = append(ins, core.RecipeInput{Phrases: r.Ingredients, Servings: r.Servings, Method: r.Method})
			lines += len(r.Ingredients)
		}
		out := make([]core.RecipeOutcome, len(ins))
		arena := make([]core.IngredientResult, lines)
		t := time.Now()
		if err := est.EstimateRecipesInto(context.Background(), ins, 1, out, arena); err != nil {
			return 0, err
		}
		per = append(per, nsSince(t)/float64(len(ins)))
	}
	return median(per), nil
}

// memoReplay times the memo cache on the sample's phrases as keys, in
// batches of 16 calls, since one call is near the clock's resolution.
func memoReplay(phrases []string, out map[string]float64) {
	const batch = 16
	c := memo.New[int](defaultCacheEntries)
	var puts []float64
	for lo := 0; lo+batch <= len(phrases); lo += batch {
		t := time.Now()
		for i := lo; i < lo+batch; i++ {
			c.Put(phrases[i], i)
		}
		puts = append(puts, nsSince(t)/batch)
	}
	out["memo.put_ns"] = median(puts)

	var resident []string
	for _, p := range distinct(phrases, len(phrases)) {
		if _, ok := c.Get(p); ok {
			resident = append(resident, p)
		}
	}
	var gets []float64
	for lo := 0; lo+batch <= len(resident); lo += batch {
		t := time.Now()
		for i := lo; i < lo+batch; i++ {
			c.Get(resident[i])
		}
		gets = append(gets, nsSince(t)/batch)
	}
	out["memo.get_hit_ns"] = median(gets)
}

// handlerReplay times server.Handler() per route through httptest, and
// the same inputs straight through core, so the difference is the
// serving layer's own cost. net_us is the run's interactive median
// latency minus the handler time of the same mix: the network, the
// client and net/http's connection handling.
func handlerReplay(newEst func() (*core.Estimator, error), in *inputs, recipes []*recipe, e *e2eRun, out map[string]float64) error {
	est, err := newEst()
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{Estimator: est})
	if err != nil {
		return err
	}
	h := srv.Handler()
	serve := func(path string, body []byte) (float64, error) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(rec, req)
		ns := nsSince(t)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("handler %s: status %d: %.200s", path, rec.Code, rec.Body.Bytes())
		}
		return ns, nil
	}
	timeRoute := func(path string, bodies [][]byte, perBody float64) (float64, error) {
		var ns []float64
		for pass := 0; pass < 2; pass++ { // the first pass warms the caches
			ns = ns[:0]
			for _, b := range bodies {
				d, err := serve(path, b)
				if err != nil {
					return 0, err
				}
				ns = append(ns, d/perBody)
			}
		}
		return median(ns), nil
	}

	// Each route's handler passes run first (the first warms the
	// caches); the same inputs then go straight through core while the
	// caches hold what the handler left, so the difference is the
	// serving layer's own cost.
	estBodies := in.estBodies[:min(len(in.estBodies), 1024)]
	if out["server.handler_ns.estimate"], err = timeRoute("/v1/estimate", estBodies, 1); err != nil {
		return err
	}
	coreEst := median(timeEach(in.phrases[:len(estBodies)], 0, func(p string) { est.EstimateIngredient(p) }))

	n := min(len(recipes), 512)
	var recBodies [][]byte
	for _, r := range recipes[:n] {
		b, err := r.wire()
		if err != nil {
			return err
		}
		recBodies = append(recBodies, b)
	}
	if out["server.handler_ns.recipe"], err = timeRoute("/v1/recipe", recBodies, 1); err != nil {
		return err
	}
	var coreRec []float64
	for _, r := range recipes[:n] {
		ins := []core.RecipeInput{{Phrases: r.Ingredients, Servings: r.Servings, Method: r.Method}}
		res := make([]core.RecipeOutcome, 1)
		arena := make([]core.IngredientResult, len(r.Ingredients))
		t := time.Now()
		if err := est.EstimateRecipesInto(context.Background(), ins, 1, res, arena); err != nil {
			return err
		}
		coreRec = append(coreRec, nsSince(t))
	}

	var batchBodies [][]byte
	for lo := 0; lo+batchLines <= len(recipes); lo += batchLines {
		var body []byte
		for _, r := range recipes[lo : lo+batchLines] {
			b, err := r.wire()
			if err != nil {
				return err
			}
			body = append(append(body, b...), '\n')
		}
		batchBodies = append(batchBodies, body)
	}
	if out["server.handler_ns.batch_line"], err = timeRoute("/v1/batch", batchBodies, batchLines); err != nil {
		return err
	}
	out["server.self_ns.estimate"] = out["server.handler_ns.estimate"] - coreEst
	out["server.self_ns.recipe"] = out["server.handler_ns.recipe"] - median(coreRec)
	mix := (out["server.handler_ns.estimate"] + out["server.handler_ns.recipe"]) / 2
	out["server.net_us"] = (float64(e.light.p50.Nanoseconds()) - mix) / 1e3
	return nil
}

// clockCost is the median interval between two back-to-back stamps.
func clockCost() float64 {
	d := make([]float64, 10000)
	for i := range d {
		t := stamp()
		d[i] = float64(stamp() - t)
	}
	return median(d)
}
