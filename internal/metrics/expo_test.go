package metrics

// Exposition-format conformance for Text, checked with the strict
// promtest parser rather than string matching: every sample must belong
// to a declared family, HELP/TYPE must precede the samples, histogram
// buckets must be cumulative and monotone with a terminal le="+Inf"
// equal to _count, and every rendered value must agree with the
// Snapshot the exposition claims to render.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"nutriprofile/internal/metrics/promtest"
)

// testRegistry builds a registry with a known mix: two routes (one with
// an awkward name that needs label escaping), latencies spread across
// buckets including one overflow, shed and batch traffic, and non-zero
// gauges.
func testRegistry() *Registry {
	g := NewRegistry()
	est := g.Route("/v1/estimate")
	est.Observe(200, 300*time.Microsecond)
	est.Observe(400, 2*time.Millisecond)
	est.Observe(200, 2*time.Second) // beyond the last bucket: overflow
	g.Route("esc\"aped\\ro\nute").Observe(200, time.Millisecond)
	g.IncInFlight()
	g.IncInFlight()
	g.DecInFlight()
	g.AddShed()
	g.AddBatchLines(7)
	g.AddBatchLineErrors(2)
	g.AddBatchWindow()
	g.IncBulkActive()
	return g
}

// render writes the per-route families of s, the exposition the
// registry contributes to /metrics.
func render(t *testing.T, s Snapshot) string {
	t.Helper()
	var buf bytes.Buffer
	x := NewText(&buf)
	x.Routes(s.Routes)
	if err := x.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestPrometheusExposition(t *testing.T) {
	snap := testRegistry().Snapshot()
	fams := promtest.Parse(t, render(t, snap))

	wantTypes := map[string]string{
		"nutriserve_http_requests_total":           "counter",
		"nutriserve_http_responses_total":          "counter",
		"nutriserve_http_request_duration_seconds": "histogram",
	}
	for name, typ := range wantTypes {
		f := fams[name]
		if f == nil {
			t.Fatalf("family %s missing from exposition", name)
		}
		if f.Type != typ {
			t.Errorf("%s type %q, want %q", name, f.Type, typ)
		}
		if f.Help == "" {
			t.Errorf("%s has no HELP text", name)
		}
	}
	if len(fams) != len(wantTypes) {
		t.Errorf("exposition has %d families, want %d", len(fams), len(wantTypes))
	}

	// Per-route counters — including the route whose name exercises all
	// three label escapes (backslash, quote, newline).
	for route, rs := range snap.Routes {
		lbl := map[string]string{"route": route}
		if v := promtest.Value(t, fams, "nutriserve_http_requests_total", "nutriserve_http_requests_total", lbl); v != float64(rs.Requests) {
			t.Errorf("route %q requests %v, want %d", route, v, rs.Requests)
		}
		for class, n := range rs.ByClass {
			cl := map[string]string{"route": route, "class": class}
			if v := promtest.Value(t, fams, "nutriserve_http_responses_total", "nutriserve_http_responses_total", cl); v != float64(n) {
				t.Errorf("route %q class %s %v, want %d", route, class, v, n)
			}
		}
	}
}

// TestTextSample pins the sample primitives: integer types print as
// integers and float64 in shortest 'g' form (so a family keeps the form
// it was introduced with), labels print in the order given, and an
// unsupported value type panics.
func TestTextSample(t *testing.T) {
	var buf bytes.Buffer
	x := NewText(&buf)
	x.Header("m", "Help text.", "gauge")
	x.Sample("m", uint64(1234567), "k", "u64")
	x.Sample("m", uint32(7), "k", "u32")
	x.Sample("m", int64(-3), "k", "i64")
	x.Sample("m", 42, "k", "int")
	x.Sample("m", float64(1234567), "k", "f64", "z", "a")
	x.Sample("m", 0.25)
	if err := x.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "# HELP m Help text.\n# TYPE m gauge\n" +
		`m{k="u64"} 1234567` + "\n" +
		`m{k="u32"} 7` + "\n" +
		`m{k="i64"} -3` + "\n" +
		`m{k="int"} 42` + "\n" +
		`m{k="f64",z="a"} 1.234567e+06` + "\n" +
		"m 0.25\n"
	if buf.String() != want {
		t.Errorf("got\n%s\nwant\n%s", buf.String(), want)
	}
	promtest.Parse(t, buf.String())

	defer func() {
		if recover() == nil {
			t.Error("Sample accepted a string value")
		}
	}()
	x.Sample("m", "1")
}

// TestPrometheusHistogram pins the histogram contract: buckets are
// rendered cumulative and monotone over ascending second-valued le
// bounds, the terminal le="+Inf" bucket equals _count (so overflow
// observations are counted), and _sum is the snapshot sum in seconds.
func TestPrometheusHistogram(t *testing.T) {
	snap := testRegistry().Snapshot()
	fams := promtest.Parse(t, render(t, snap))
	f := fams["nutriserve_http_request_duration_seconds"]
	if f == nil {
		t.Fatal("histogram family missing")
	}

	for route, rs := range snap.Routes {
		var les []float64
		var counts []float64
		inf := math.NaN()
		for _, s := range f.Samples {
			if s.Name != "nutriserve_http_request_duration_seconds_bucket" || s.Labels["route"] != route {
				continue
			}
			le := s.Labels["le"]
			if le == "+Inf" {
				inf = s.Value
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("route %q: unparseable le %q", route, le)
			}
			les = append(les, bound)
			counts = append(counts, s.Value)
		}
		if len(les) != len(rs.Latency.Buckets) {
			t.Fatalf("route %q: %d finite buckets exposed, snapshot has %d", route, len(les), len(rs.Latency.Buckets))
		}
		var cum uint64
		for i, b := range rs.Latency.Buckets {
			if want := b.UpperMs / 1000; les[i] != want {
				t.Errorf("route %q bucket %d le %v, want %v (ms converted to s)", route, i, les[i], want)
			}
			if i > 0 && les[i] <= les[i-1] {
				t.Errorf("route %q bucket bounds not ascending at %d: %v after %v", route, i, les[i], les[i-1])
			}
			cum += b.Count
			if counts[i] != float64(cum) {
				t.Errorf("route %q bucket le=%v count %v, want cumulative %d", route, les[i], counts[i], cum)
			}
			if i > 0 && counts[i] < counts[i-1] {
				t.Errorf("route %q cumulative counts decrease at bucket %d", route, i)
			}
		}
		if math.IsNaN(inf) {
			t.Fatalf("route %q has no le=\"+Inf\" bucket", route)
		}
		lbl := map[string]string{"route": route}
		count := promtest.Value(t, fams, "nutriserve_http_request_duration_seconds",
			"nutriserve_http_request_duration_seconds_count", lbl)
		if inf != count {
			t.Errorf("route %q le=+Inf %v != _count %v", route, inf, count)
		}
		if count != float64(rs.Latency.Count) {
			t.Errorf("route %q _count %v, want %d", route, count, rs.Latency.Count)
		}
		if inf < counts[len(counts)-1] {
			t.Errorf("route %q +Inf bucket %v below last finite bucket %v", route, inf, counts[len(counts)-1])
		}
		sum := promtest.Value(t, fams, "nutriserve_http_request_duration_seconds",
			"nutriserve_http_request_duration_seconds_sum", lbl)
		if want := rs.Latency.SumMs / 1000; math.Abs(sum-want) > 1e-9 {
			t.Errorf("route %q _sum %v, want %v", route, sum, want)
		}
	}
}

// TestPrometheusDeterministic pins scrape diffability: with no traffic
// in between, two scrapes are byte-identical (routes sorted, no map
// iteration order leaking into the output).
func TestPrometheusDeterministic(t *testing.T) {
	g := testRegistry()
	g.Route("/v1/recipe").Observe(200, time.Millisecond)
	g.Route("/metrics").Observe(200, 50*time.Microsecond)
	if a, b := render(t, g.Snapshot()), render(t, g.Snapshot()); a != b {
		t.Fatal("two idle scrapes differ")
	}
}

type failWriter struct{ err error }

func (f failWriter) Write(p []byte) (int, error) { return 0, f.err }

func TestPrometheusWriteError(t *testing.T) {
	want := errors.New("scrape socket closed")
	x := NewText(failWriter{err: want})
	x.Routes(testRegistry().Snapshot().Routes)
	if err := x.Flush(); !errors.Is(err, want) {
		t.Fatalf("got %v, want the writer's error", err)
	}
}

// TestPrometheusMicrosecondBuckets pins the default ladder on the wire:
// le bounds from 1e-06 to 1 s in 1–2.5–5 steps, and warm-path latencies
// of a few microseconds resolved below the old 0.25 ms floor.
func TestPrometheusMicrosecondBuckets(t *testing.T) {
	g := NewRegistry()
	rt := g.Route("/v1/estimate")
	for _, d := range []time.Duration{5 * time.Microsecond, 7 * time.Microsecond, 30 * time.Microsecond, 300 * time.Microsecond} {
		rt.Observe(200, d)
	}
	var got []string
	for _, s := range promtest.Parse(t, render(t, g.Snapshot()))["nutriserve_http_request_duration_seconds"].Samples {
		if s.Name == "nutriserve_http_request_duration_seconds_bucket" {
			got = append(got, fmt.Sprintf("%s=%v", s.Labels["le"], s.Value))
		}
	}
	want := []string{
		"1e-06=0", "2.5e-06=0", "5e-06=1", "1e-05=2", "2.5e-05=2", "5e-05=3",
		"0.0001=3", "0.00025=3", "0.0005=4", "0.001=4", "0.0025=4", "0.005=4",
		"0.01=4", "0.025=4", "0.05=4", "0.1=4", "0.25=4", "0.5=4", "1=4", "+Inf=4",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("buckets\n got %v\nwant %v", got, want)
	}
}
