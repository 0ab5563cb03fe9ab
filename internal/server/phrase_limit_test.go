package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestPhraseTooLong: a phrase over MaxPhraseBytes is refused with 400
// phrase_too_long on every estimation route, and refused before the
// estimator sees it — no phrase-cache lookup (the first step of
// estimation, ahead of tokenization) and no ranking query. A phrase of
// exactly MaxPhraseBytes is still estimated.
func TestPhraseTooLong(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 4 << 20 })
	h := s.Handler()
	huge := strings.Repeat("flour ", (1<<20)/6)
	mustJSON := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	lookups := func() uint64 {
		phrase, _ := s.est.CacheStats()
		return phrase.Hits + phrase.Misses
	}

	before, ranks := lookups(), s.est.MatcherStats().Ranks
	for _, tc := range []struct{ path, body string }{
		{"/v1/estimate", mustJSON(EstimateRequest{Phrase: huge})},
		{"/v1/recipe", mustJSON(RecipeRequest{Ingredients: []string{"2 eggs", huge}, Servings: 2})},
	} {
		w := postJSON(t, h, tc.path, tc.body)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.path, w.Code)
		}
		if eb := decodeErrorBody(t, w); eb.Error.Code != "phrase_too_long" {
			t.Fatalf("%s: code %q, want phrase_too_long", tc.path, eb.Error.Code)
		}
	}

	batch := mustJSON(EstimateRequest{Phrase: huge}) + "\n" +
		mustJSON(RecipeRequest{Ingredients: []string{huge}}) + "\n"
	w := postJSON(t, h, "/v1/batch", batch)
	lines := batchSplit(t, w.Body.Bytes())
	if len(lines) != 2 {
		t.Fatalf("batch answered %d lines, want 2", len(lines))
	}
	for i, ln := range lines {
		if eb := decodeBatchError(t, ln); eb.Error.Code != "phrase_too_long" || eb.Error.Line != i+1 {
			t.Fatalf("batch line %d: %+v, want phrase_too_long on line %d", i+1, eb.Error, i+1)
		}
	}
	if got := lookups(); got != before {
		t.Errorf("phrase cache saw %d lookups for refused phrases, want 0", got-before)
	}
	if got := s.est.MatcherStats().Ranks; got != ranks {
		t.Errorf("matcher ran %d ranks for refused phrases, want 0", got-ranks)
	}

	atLimit := "1 cup " + strings.Repeat("a", MaxPhraseBytes-len("1 cup "))
	if w := postJSON(t, h, "/v1/estimate", mustJSON(EstimateRequest{Phrase: atLimit})); w.Code != http.StatusOK {
		t.Errorf("phrase of exactly %d bytes: status %d, want 200", MaxPhraseBytes, w.Code)
	}
	if lookups() == before {
		t.Error("an estimated phrase did not reach the phrase cache; the lookup count proves nothing")
	}
}
