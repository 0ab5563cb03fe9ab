package server

// FuzzEstimateHandler drives arbitrary bodies through the full request
// path — decoder, admission, deadline, pipeline — and enforces the API's
// two hard invariants: the handler never panics (a panic would fail the
// fuzz run), and every non-200 response carries a structured ErrorBody
// with a stable code. Wired into the nightly fuzz job via `make fuzz`.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"nutriprofile/internal/core"
	"nutriprofile/internal/usda"
)

// fuzzServer is shared across fuzz iterations: building the seed DB and
// matcher per-exec would dominate the fuzzing budget.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
)

func sharedFuzzServer(f *testing.F) *Server {
	fuzzOnce.Do(func() {
		est, err := core.New(usda.Seed(), nil, core.Options{CacheSize: 4096})
		if err != nil {
			f.Fatal(err)
		}
		fuzzSrv, err = New(Config{Estimator: est, MaxBodyBytes: 1 << 16})
		if err != nil {
			f.Fatal(err)
		}
	})
	return fuzzSrv
}

func FuzzEstimateHandler(f *testing.F) {
	f.Add([]byte(`{"phrase":"2 cups all-purpose flour"}`))
	f.Add([]byte(`{"phrase":""}`))
	f.Add([]byte(`{"phrase":"500 cups sugar or 250 g"}`))
	f.Add([]byte(`{"phrase":"1 ½ cups milk"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"phrase": 42}`))
	f.Add([]byte(`{"phrase":"salt","unknown":true}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte("\x00\xff\xfe"))
	f.Add([]byte(strings.Repeat(`{"phrase":"a`, 500)))
	f.Add([]byte(`{"phrase":"` + strings.Repeat("flour ", 2000) + `"}`))

	s := sharedFuzzServer(f)
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(string(body)))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req) // must not panic for any body

		switch {
		case w.Code == http.StatusOK:
			var resp EstimateResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body is not an EstimateResponse: %v (body %q)", err, w.Body.String())
			}
			if strings.TrimSpace(resp.Phrase) == "" {
				t.Fatalf("200 for an empty phrase: request %q", body)
			}
		default:
			var eb ErrorBody
			if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
				t.Fatalf("status %d body is not a structured error: %v (body %q, request %q)",
					w.Code, err, w.Body.String(), body)
			}
			if eb.Error.Code == "" || eb.Error.Message == "" {
				t.Fatalf("status %d error body missing code/message: %+v (request %q)", w.Code, eb, body)
			}
			if eb.Error.Status != w.Code {
				t.Fatalf("error body status %d disagrees with response status %d", eb.Error.Status, w.Code)
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("non-200 Content-Type %q", ct)
			}
		}
	})
}

// FuzzRecipeHandler applies the same invariants to the recipe route,
// whose decoder surface (arrays, servings, method) is wider.
func FuzzRecipeHandler(f *testing.F) {
	f.Add([]byte(`{"ingredients":["2 cups flour","1 cup sugar"],"servings":4}`))
	f.Add([]byte(`{"ingredients":[]}`))
	f.Add([]byte(`{"ingredients":["salt"],"servings":-1}`))
	f.Add([]byte(`{"ingredients":["salt"],"method":"vaporized"}`))
	f.Add([]byte(`{"ingredients":["salt"],"method":"baked"}`))
	f.Add([]byte(`{"ingredients":[""],"servings":1}`))
	f.Add([]byte(`{"ingredients":"flour"}`))
	f.Add([]byte(`{"servings":2}`))
	f.Add([]byte(`{"ingredients":["salt"],"servings":0}`))

	s := sharedFuzzServer(f)
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/recipe", strings.NewReader(string(body)))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)

		if w.Code == http.StatusOK {
			var resp RecipeResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body is not a RecipeResponse: %v", err)
			}
			if resp.Servings <= 0 || len(resp.Ingredients) == 0 {
				t.Fatalf("200 with invalid shape: %+v (request %q)", resp, body)
			}
			return
		}
		var eb ErrorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
			t.Fatalf("status %d body is not a structured error (body %q, request %q)", w.Code, w.Body.String(), body)
		}
		if eb.Error.Code == "" || eb.Error.Status != w.Code {
			t.Fatalf("malformed error body %+v for status %d", eb, w.Code)
		}
	})
}

// FuzzBatchHandler drives arbitrary NDJSON bodies through the streaming
// bulk route. Invariants: the handler never panics, the stream never
// loses or invents lines (every non-blank input line — and every line
// over the per-line cap — yields exactly one response line, in order),
// every response line is valid JSON, and every error line is a
// structured BatchErrorBody whose line numbers are strictly increasing.
func FuzzBatchHandler(f *testing.F) {
	f.Add([]byte(`{"phrase":"2 cups all-purpose flour"}` + "\n"))
	f.Add([]byte(`{"ingredients":["2 cups flour","1 cup sugar"],"servings":4}` + "\n"))
	f.Add([]byte("{\"phrase\":\"salt\"}\r\n\r\n{\"ingredients\":[\"salt\"]}\n"))
	f.Add([]byte(`{"phrase":"salt"}` + "\n" + `{"phrase":` + "\n" + `{"phrase":"salt"}`))
	f.Add([]byte("not json\nnull\n{}\n[]\n"))
	f.Add([]byte("\n\n \t\n"))
	f.Add([]byte(`{"phrase":"` + strings.Repeat("a", 1<<17) + `"}` + "\n" + `{"phrase":"salt"}` + "\n"))
	f.Add([]byte(strings.Repeat(`{"phrase":"salt"}`+"\n", 200)))
	f.Add([]byte(`{"phrase":"salt","ingredients":["x"]}` + "\n" + `{"bogus":1}`))
	f.Add([]byte("\x00\xff\xfe\n"))
	f.Add([]byte(`{"phrase":"1 ½ cups milk"}` + "\n"))
	f.Add([]byte(`{"ingredients":["salt"],"servings":0}` + "\n" + `{"ingredients":["salt"]}` + "\n"))

	s := sharedFuzzServer(f)
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(string(body)))
		req.Header.Set("Content-Type", "application/x-ndjson")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req) // must not panic for any body

		if w.Code == http.StatusTooManyRequests {
			// Parallel fuzz workers can exceed the bulk-stream cap; the
			// shed must still be a structured whole-request error.
			var eb ErrorBody
			if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error.Code == "" {
				t.Fatalf("shed body is not a structured error: %v (%q)", err, w.Body.Bytes())
			}
			return
		}
		if w.Code != http.StatusOK {
			t.Fatalf("batch status %d (request %q)", w.Code, body)
		}

		// Expected answered-line count, mirroring the wire contract: one
		// response per newline-separated segment that is non-blank after
		// stripping one trailing CR, plus one per segment over the
		// per-line cap (answered 413 even when blank).
		maxLine := 1 << 16 // sharedFuzzServer's MaxBodyBytes
		want := 0
		for _, seg := range strings.Split(string(body), "\n") {
			seg = strings.TrimSuffix(seg, "\r")
			if len(seg) > maxLine {
				want++
				continue
			}
			if strings.Trim(seg, " \t") != "" {
				want++
			}
		}

		out := w.Body.Bytes()
		got := 0
		lastErrLine := 0
		for len(out) > 0 {
			i := bytes.IndexByte(out, '\n')
			if i < 0 {
				t.Fatalf("response ends mid-line: %q", out)
			}
			ln := out[:i]
			out = out[i+1:]
			got++
			if !json.Valid(ln) {
				t.Fatalf("response line %d is not valid JSON: %q (request %q)", got, ln, body)
			}
			if !bytes.HasPrefix(ln, []byte(`{"error"`)) {
				continue
			}
			var eb BatchErrorBody
			if err := json.Unmarshal(ln, &eb); err != nil {
				t.Fatalf("error line does not parse: %v (%q)", err, ln)
			}
			if eb.Error.Code == "" || eb.Error.Message == "" || eb.Error.Status == 0 {
				t.Fatalf("malformed batch error %+v (%q)", eb, ln)
			}
			if eb.Error.Line <= lastErrLine {
				t.Fatalf("error line numbers not increasing: %d after %d (request %q)",
					eb.Error.Line, lastErrLine, body)
			}
			lastErrLine = eb.Error.Line
		}
		if got != want {
			t.Fatalf("answered %d lines for %d answerable input lines (request %q, response %q)",
				got, want, body, w.Body.Bytes())
		}
	})
}
