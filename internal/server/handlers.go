package server

// Route handlers and their wire types. Conventions: every response body
// is JSON; every non-200 body is an ErrorBody whose code is a stable
// machine-readable string (the fuzz harness enforces this invariant for
// arbitrary inputs).
//
// The estimation routes run on the pooled codec in codec.go: the wire
// structs below are no longer what goes through encoding/json at
// request time — they are the *specification* of the wire format, and
// codec_test.go pins the hand-written encoders byte-for-byte against
// json.Marshal of these structs. Change a tag here and the codec tests
// will tell you where the encoder must follow.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"nutriprofile/internal/core"
	"nutriprofile/internal/flight"
	"nutriprofile/internal/jsonx"
	"nutriprofile/internal/match"
	"nutriprofile/internal/memo"
	"nutriprofile/internal/metrics"
	"nutriprofile/internal/nutrition"
	"nutriprofile/internal/pipeline"
	"nutriprofile/internal/yield"
)

// ErrorBody is the structured error wrapper on every non-200 response.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries the machine-readable error.
type ErrorDetail struct {
	Code    string `json:"code"` // stable identifier: bad_request, overloaded, timeout, ...
	Status  int    `json:"status"`
	Message string `json:"message"`
}

// BatchErrorBody is the structured per-line error on a /v1/batch stream.
// It is ErrorBody plus the 1-based input line the error answers, so a
// client correlating by position can also correlate by number after a
// resync (blank lines are counted but never answered).
type BatchErrorBody struct {
	Error BatchErrorDetail `json:"error"`
}

// BatchErrorDetail carries the machine-readable per-line error.
type BatchErrorDetail struct {
	Code    string `json:"code"`
	Status  int    `json:"status"`
	Message string `json:"message"`
	Line    int    `json:"line"`
}

// EstimateRequest is the POST /v1/estimate body.
type EstimateRequest struct {
	Phrase string `json:"phrase"`
}

// EstimateResponse is the pipeline trace for one ingredient phrase.
type EstimateResponse struct {
	Phrase      string            `json:"phrase"`
	Matched     bool              `json:"matched"`
	NDB         int               `json:"ndb,omitempty"`
	Description string            `json:"description,omitempty"`
	Score       float64           `json:"score,omitempty"`
	Quantity    float64           `json:"quantity"`
	Unit        string            `json:"unit,omitempty"`
	UnitOrigin  string            `json:"unit_origin"`
	GramsVia    string            `json:"grams_via"`
	Grams       float64           `json:"grams"`
	Mapped      bool              `json:"mapped"`
	Profile     nutrition.Profile `json:"profile"`
}

func toEstimateResponse(r core.IngredientResult) EstimateResponse {
	out := EstimateResponse{
		Phrase:     r.Phrase,
		Matched:    r.Matched,
		Quantity:   r.Quantity,
		Unit:       r.Unit,
		UnitOrigin: r.UnitOrigin.String(),
		GramsVia:   r.GramsVia.String(),
		Grams:      r.Grams,
		Mapped:     r.Mapped,
		Profile:    r.Profile,
	}
	if r.Matched {
		out.NDB = r.Match.NDB
		out.Description = r.Match.Desc
		out.Score = r.Match.Score
	}
	return out
}

// writeRendered flushes a pre-rendered JSON body. The handler owns the
// body's backing buffer, so this must be the request's final write.
func writeRendered(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	_, _ = w.Write(body)
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	sc := getServeScratch()
	status, body := s.estimateHot(sc, r.Context(), r.Body)
	writeRendered(w, status, body)
	putServeScratch(sc)
}

// estimateHot is the gated steady-state path: read → decode → estimate
// → encode, everything in scratch-owned memory. With a warm scratch and
// a phrase-cache hit it performs zero heap allocations (enforced by
// TestServeEstimateHotZeroAllocs and the serve benchmarks). The
// returned body aliases sc.out.
func (s *Server) estimateHot(sc *serveScratch, ctx context.Context, body io.Reader) (int, []byte) {
	sc.out = sc.out[:0]
	if err := sc.readBody(body); err != nil {
		return decodeErrInto(sc, err)
	}
	phraseBytes, err := sc.decodeEstimate()
	if err != nil {
		return decodeErrInto(sc, err)
	}
	phrase := strings.TrimSpace(byteView(phraseBytes))
	if phrase == "" {
		return errInto(sc, http.StatusBadRequest, "empty_phrase",
			`"phrase" must be a non-empty ingredient phrase`)
	}
	if err := ctx.Err(); err != nil {
		return timeoutInto(sc, err)
	}
	resp := toEstimateResponse(s.est.EstimateIngredientScratch(phrase, &sc.pipe))
	sc.out = appendEstimateResponse(sc.out, &resp)
	sc.out = append(sc.out, '\n')
	return http.StatusOK, sc.out
}

// RecipeRequest is the POST /v1/recipe body.
type RecipeRequest struct {
	// Ingredients are the recipe's ingredient phrases, one per line.
	Ingredients []string `json:"ingredients"`
	// Servings defaults to 1 when absent; an explicit value must be
	// positive.
	Servings int `json:"servings,omitempty"`
	// Method optionally names a cooking method ("baked", "boiled", ...)
	// to apply the cooking-yield correction to the totals. Unknown
	// names are rejected.
	Method string `json:"method,omitempty"`
}

// RecipeResponse aggregates a recipe estimate.
type RecipeResponse struct {
	Servings       int                `json:"servings"`
	Method         string             `json:"method"`
	MappedFraction float64            `json:"mapped_fraction"`
	Total          nutrition.Profile  `json:"total"`
	PerServing     nutrition.Profile  `json:"per_serving"`
	Ingredients    []EstimateResponse `json:"ingredients"`
}

func (s *Server) handleRecipe(w http.ResponseWriter, r *http.Request) {
	sc := getServeScratch()
	status, body := s.recipeHot(sc, r.Context(), r.Body)
	writeRendered(w, status, body)
	putServeScratch(sc)
}

// recipeHot mirrors estimateHot for /v1/recipe. The recipe path is not
// allocation-free (core materializes per-ingredient results), but the
// codec work — decode, validation, encode — all runs in scratch memory.
func (s *Server) recipeHot(sc *serveScratch, ctx context.Context, body io.Reader) (int, []byte) {
	sc.out = sc.out[:0]
	if err := sc.readBody(body); err != nil {
		return decodeErrInto(sc, err)
	}
	req, err := sc.decodeRecipe()
	if err != nil {
		return decodeErrInto(sc, err)
	}
	if len(req.ingredients) == 0 {
		return errInto(sc, http.StatusBadRequest, "no_ingredients",
			`"ingredients" must list at least one phrase`)
	}
	if req.servings <= 0 {
		return errInto(sc, http.StatusBadRequest, "bad_servings",
			fmt.Sprintf("servings must be positive, got %d", req.servings))
	}
	method := yield.None
	if name := strings.ToLower(strings.TrimSpace(req.method)); name != "" {
		method = yield.ParseMethod(name)
		if method == yield.None && name != yield.None.String() {
			return errInto(sc, http.StatusBadRequest, "bad_method",
				fmt.Sprintf("unknown cooking method %q", req.method))
		}
	}

	res, err := s.est.EstimateRecipeCookedContext(ctx, req.ingredients, req.servings, method, s.cfg.Workers)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return timeoutInto(sc, err)
		}
		return errInto(sc, http.StatusBadRequest, "bad_recipe", err.Error())
	}

	head := RecipeResponse{
		Servings:       res.Servings,
		Method:         method.String(),
		MappedFraction: res.MappedFraction,
		Total:          res.Total,
		PerServing:     res.PerServing,
	}
	sc.out = appendRecipeResponseHeader(sc.out, &head)
	for i := range res.Ingredients {
		if i > 0 {
			sc.out = append(sc.out, ',')
		}
		resp := toEstimateResponse(res.Ingredients[i])
		sc.out = appendEstimateResponse(sc.out, &resp)
	}
	sc.out = appendRecipeResponseFooter(sc.out)
	return http.StatusOK, sc.out
}

// timeoutInto maps a context error to the wire: 504 for an expired
// deadline (the request exceeded RequestTimeout), 499-style 503 when
// the client went away or the server is draining.
func timeoutInto(sc *serveScratch, err error) (int, []byte) {
	if errors.Is(err, context.DeadlineExceeded) {
		return errInto(sc, http.StatusGatewayTimeout, "timeout",
			"request exceeded the per-request deadline")
	}
	return errInto(sc, http.StatusServiceUnavailable, "canceled",
		"request canceled before completion")
}

// HealthzResponse is the GET /v1/healthz body.
type HealthzResponse struct {
	Status string `json:"status"`
	Foods  int    `json:"foods"` // composition-table size, a cheap liveness probe of the pipeline
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	buf := jsonx.GetBuffer()
	resp := HealthzResponse{Status: "ok", Foods: s.est.DB().Len()}
	buf.B = appendHealthzResponse(buf.B, &resp)
	writeRendered(w, http.StatusOK, buf.B)
	jsonx.PutBuffer(buf)
}

// StatsResponse is the GET /v1/stats body: the full observability
// surface of one serving process. Stats is off the hot path and keeps
// encoding/json — its shape churns with every new counter, and pinning
// a hand encoder to it would buy nothing.
type StatsResponse struct {
	Memo struct {
		Phrase memo.Stats `json:"phrase"`
		Match  memo.Stats `json:"match"`
	} `json:"memo"`
	Flight  flight.Stats         `json:"flight"`
	Shard   core.ShardStats      `json:"shard"`
	Scratch pipeline.PoolStats   `json:"scratch_pool"`
	Matcher match.MatcherStats   `json:"matcher"`
	DB      core.SnapshotStats   `json:"db"`
	HTTP    metrics.Snapshot     `json:"http"`
	Runtime metrics.RuntimeStats `json:"runtime"`
}

// handleMetrics serves the registry in Prometheus text format — the
// same counters as /v1/stats HTTP section, rendered for scrape stacks
// — followed by the estimator's memo-cache families (hits, misses,
// evictions, admission outcomes, and the derived hit-ratio gauge) and
// the matcher-engine families (index shape plus the pruned ranking
// engine's work-avoidance counters), snapshotted at scrape time. See
// memo_metrics.go and match_metrics.go.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.PrometheusContentType())
	if err := s.reg.WritePrometheus(w); err != nil {
		return
	}
	phrase, match := s.est.CacheStats()
	if err := writeMemoMetrics(w, phrase, match); err != nil {
		return
	}
	_ = writeMatchMetrics(w, s.est.MatcherStats())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var out StatsResponse
	out.Memo.Phrase, out.Memo.Match = s.est.CacheStats()
	out.Flight = s.est.FlightStats()
	out.Shard = s.est.ShardStats()
	out.Scratch = pipeline.Stats()
	out.Matcher = s.est.MatcherStats()
	out.DB = s.est.SnapshotStats()
	out.HTTP = s.reg.Snapshot()
	out.Runtime = s.runtime.Sample()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}
