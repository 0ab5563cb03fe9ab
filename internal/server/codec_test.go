package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
)

// reencode round-trips a response body through encoding/json: decode
// into the wire struct (rejecting unknown fields so a stray key the
// struct would not have produced fails loudly), then re-encode with
// json.Encoder exactly the way the pre-codec server did. If the pooled
// codec's output is byte-identical to this, it is byte-identical to
// what encoding/json emitted for the same value — omitempty decisions,
// field order, float format, HTML escaping, trailing newline and all.
func reencode[T any](t *testing.T, body []byte) []byte {
	t.Helper()
	var v T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("response is not a valid %T: %v (body %q)", v, err, body)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func assertCodecEqual[T any](t *testing.T, context string, body []byte) {
	t.Helper()
	if want := reencode[T](t, body); !bytes.Equal(body, want) {
		t.Errorf("%s: pooled codec output diverges from encoding/json\n got: %q\nwant: %q", context, body, want)
	}
}

// corpusRecipes loads the golden corpus' request side.
func corpusRecipes(t *testing.T) []RecipeRequest {
	t.Helper()
	raw, err := os.ReadFile("testdata/corpus.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Recipes []struct {
			Name        string   `json:"name"`
			Servings    int      `json:"servings"`
			Method      string   `json:"method"`
			Ingredients []string `json:"ingredients"`
		} `json:"recipes"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	out := make([]RecipeRequest, len(doc.Recipes))
	for i, r := range doc.Recipes {
		out[i] = RecipeRequest{Ingredients: r.Ingredients, Servings: r.Servings, Method: r.Method}
	}
	return out
}

// TestCodecGoldenEquality runs the whole golden corpus through
// /v1/recipe and every distinct ingredient phrase through /v1/estimate,
// asserting each 200 body is byte-for-byte what encoding/json would
// have produced.
func TestCodecGoldenEquality(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()

	seen := map[string]bool{}
	for i, rec := range corpusRecipes(t) {
		body, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		w := postJSON(t, h, "/v1/recipe", string(body))
		if w.Code != http.StatusOK {
			t.Fatalf("recipe %d: status %d body %q", i, w.Code, w.Body.String())
		}
		assertCodecEqual[RecipeResponse](t, fmt.Sprintf("recipe %d", i), w.Body.Bytes())

		for _, phrase := range rec.Ingredients {
			if seen[phrase] {
				continue
			}
			seen[phrase] = true
			req, _ := json.Marshal(EstimateRequest{Phrase: phrase})
			w := postJSON(t, h, "/v1/estimate", string(req))
			if w.Code != http.StatusOK {
				t.Fatalf("estimate %q: status %d body %q", phrase, w.Code, w.Body.String())
			}
			assertCodecEqual[EstimateResponse](t, fmt.Sprintf("estimate %q", phrase), w.Body.Bytes())
		}
	}

	// The probe routes ride the same codec.
	w := getPath(t, h, "/v1/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", w.Code)
	}
	assertCodecEqual[HealthzResponse](t, "healthz", w.Body.Bytes())
}

// TestCodecErrorEnvelopeEquality triggers every structured-error path
// the API can produce through the real handler stack and asserts each
// envelope is byte-for-byte what encoding/json emitted before the
// pooled codec.
func TestCodecErrorEnvelopeEquality(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MaxBodyBytes = 256
		c.MaxInFlight = 1
	})
	h := s.Handler()

	check := func(name string, w interface {
		Result() *http.Response
	}, body []byte, wantStatus int, wantCode string) {
		t.Helper()
		res := w.Result()
		if res.StatusCode != wantStatus {
			t.Fatalf("%s: status %d, want %d (body %q)", name, res.StatusCode, wantStatus, body)
		}
		var eb ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code != wantCode {
			t.Fatalf("%s: body %q, want code %q (err %v)", name, body, wantCode, err)
		}
		assertCodecEqual[ErrorBody](t, name, body)
	}

	cases := []struct {
		name, path, body string
		status           int
		code             string
	}{
		{"bad_json_syntax", "/v1/estimate", `{`, 400, "bad_json"},
		{"bad_json_type", "/v1/estimate", `{"phrase":7}`, 400, "bad_json"},
		{"bad_json_unknown_field", "/v1/estimate", `{"phrase":"x","nope":1}`, 400, "bad_json"},
		{"bad_json_empty_body", "/v1/estimate", ``, 400, "bad_json"},
		{"bad_json_escape", "/v1/estimate", `{"phrase":"\q"}`, 400, "bad_json"},
		{"empty_phrase", "/v1/estimate", `{"phrase":"   "}`, 400, "empty_phrase"},
		{"empty_phrase_null_body", "/v1/estimate", `null`, 400, "empty_phrase"},
		{"no_ingredients", "/v1/recipe", `{"ingredients":[]}`, 400, "no_ingredients"},
		{"no_ingredients_missing", "/v1/recipe", `{}`, 400, "no_ingredients"},
		{"bad_servings", "/v1/recipe", `{"ingredients":["1 cup milk"],"servings":-2}`, 400, "bad_servings"},
		{"bad_servings_zero", "/v1/recipe", `{"ingredients":["1 cup milk"],"servings":0}`, 400, "bad_servings"},
		{"bad_servings_float", "/v1/recipe", `{"ingredients":["1 cup milk"],"servings":2.5}`, 400, "bad_json"},
		{"bad_method", "/v1/recipe", `{"ingredients":["1 cup milk"],"method":"microwaved"}`, 400, "bad_method"},
		{"body_too_large", "/v1/estimate", `{"phrase":"` + strings.Repeat("a", 1024) + `"}`, 413, "body_too_large"},
	}
	for _, tc := range cases {
		w := postJSON(t, h, tc.path, tc.body)
		check(tc.name, w, w.Body.Bytes(), tc.status, tc.code)
	}

	// overloaded: hold the only admission slot open with a hung request.
	release := make(chan struct{})
	admitted := make(chan struct{}, 1)
	s.testHookAdmitted = func(string) {
		admitted <- struct{}{}
		<-release
	}
	go postJSON(t, h, "/v1/estimate", `{"phrase":"1 cup milk"}`)
	<-admitted
	s.testHookAdmitted = nil
	w := postJSON(t, h, "/v1/estimate", `{"phrase":"1 cup milk"}`)
	close(release)
	check("overloaded", w, w.Body.Bytes(), http.StatusTooManyRequests, "overloaded")

	// timeout: a deadline that has always already expired.
	st := newTestServer(t, func(c *Config) { c.RequestTimeout = 1 })
	w = postJSON(t, st.Handler(), "/v1/estimate", `{"phrase":"1 cup milk"}`)
	check("timeout", w, w.Body.Bytes(), http.StatusGatewayTimeout, "timeout")
}

// TestAppendErrorBodyEquality pins the envelope encoder directly
// against encoding/json across escaping-heavy messages the handler
// paths can produce (quoted user input, angle brackets, unicode).
func TestAppendErrorBodyEquality(t *testing.T) {
	cases := []ErrorDetail{
		{Code: "bad_json", Status: 400, Message: `request body is not valid JSON for this route: invalid character '<' looking for beginning of value`},
		{Code: "bad_method", Status: 400, Message: `unknown cooking method "micro\"waved & <grilled>"`},
		{Code: "empty_phrase", Status: 400, Message: `"phrase" must be a non-empty ingredient phrase`},
		{Code: "overloaded", Status: 429, Message: "server at capacity (64 requests in flight); retry later"},
		{Code: "bad_recipe", Status: 400, Message: "crème brûlée\nline two"},
	}
	for _, d := range cases {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(ErrorBody{Error: d}); err != nil {
			t.Fatal(err)
		}
		got := appendErrorBody(nil, d.Status, d.Code, d.Message)
		if !bytes.Equal(got, buf.Bytes()) {
			t.Errorf("appendErrorBody(%+v):\n got %q\nwant %q", d, got, buf.Bytes())
		}
	}
}
