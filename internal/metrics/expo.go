package metrics

// Prometheus text exposition (format version 0.0.4): the wire-format
// primitives every /metrics family is written with — HELP/TYPE headers,
// label escaping, number formatting — plus the per-route families of a
// registry Snapshot. Which other families exist, and where their values
// come from, is the serving layer's business; this file only knows how
// they look on the wire.
//
// Unit conventions follow Prometheus practice: durations in seconds
// (the registry's millisecond buckets are converted at render time),
// cumulative counters suffixed _total, histograms exposed as cumulative
// _bucket series with an le label and a terminal le="+Inf" equal to
// _count. Output is deterministic (routes and classes sorted) so it can
// be golden-tested and diffed across scrapes.

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// PrometheusContentType is the Content-Type a /metrics handler should
// send with a Text exposition.
func PrometheusContentType() string { return promContentType }

// Text accumulates one exposition and writes it in a single Flush, so
// the render code stays linear and a write error surfaces once.
type Text struct {
	w   io.Writer
	buf []byte
}

// NewText starts an exposition that Flush writes to w.
func NewText(w io.Writer) *Text {
	return &Text{w: w, buf: make([]byte, 0, 8192)}
}

// Flush writes the exposition and returns the writer's error.
func (t *Text) Flush() error {
	_, err := t.w.Write(t.buf)
	t.buf = t.buf[:0]
	return err
}

// Header emits the HELP and TYPE lines of one metric family.
func (t *Text) Header(name, help, typ string) {
	t.buf = append(t.buf, "# HELP "...)
	t.buf = append(t.buf, name...)
	t.buf = append(t.buf, ' ')
	t.buf = append(t.buf, help...)
	t.buf = append(t.buf, "\n# TYPE "...)
	t.buf = append(t.buf, name...)
	t.buf = append(t.buf, ' ')
	t.buf = append(t.buf, typ...)
	t.buf = append(t.buf, '\n')
}

// Sample emits one sample line. labels alternate key, value. Integer
// values print as integers and float64 in shortest 'g' form; a family
// keeps whichever form it was introduced with, since scrapers compare
// lines. Any other value type is a programming error and panics.
func (t *Text) Sample(name string, v any, labels ...string) {
	t.buf = append(t.buf, name...)
	for i := 0; i+1 < len(labels); i += 2 {
		if i == 0 {
			t.buf = append(t.buf, '{')
		} else {
			t.buf = append(t.buf, ',')
		}
		t.label(labels[i], labels[i+1])
	}
	if len(labels) > 0 {
		t.buf = append(t.buf, '}')
	}
	t.buf = append(t.buf, ' ')
	switch v := v.(type) {
	case uint64:
		t.buf = strconv.AppendUint(t.buf, v, 10)
	case uint32:
		t.buf = strconv.AppendUint(t.buf, uint64(v), 10)
	case int64:
		t.buf = strconv.AppendInt(t.buf, v, 10)
	case int:
		t.buf = strconv.AppendInt(t.buf, int64(v), 10)
	case float64:
		t.buf = strconv.AppendFloat(t.buf, v, 'g', -1, 64)
	default:
		panic(fmt.Sprintf("metrics: unsupported sample value %T", v))
	}
	t.buf = append(t.buf, '\n')
}

// label appends one escaped label pair; Prometheus label values escape
// backslash, double quote and newline.
func (t *Text) label(key, val string) {
	t.buf = append(t.buf, key...)
	t.buf = append(t.buf, `="`...)
	for i := 0; i < len(val); i++ {
		switch c := val[i]; c {
		case '\\':
			t.buf = append(t.buf, `\\`...)
		case '"':
			t.buf = append(t.buf, `\"`...)
		case '\n':
			t.buf = append(t.buf, `\n`...)
		default:
			t.buf = append(t.buf, c)
		}
	}
	t.buf = append(t.buf, '"')
}

// Routes emits the per-route families: request counters, response
// counters by status class, and the latency histogram.
func (t *Text) Routes(routes map[string]RouteSnapshot) {
	names := make([]string, 0, len(routes))
	for name := range routes {
		names = append(names, name)
	}
	sort.Strings(names)

	t.Header("nutriserve_http_requests_total", "Requests received, by route.", "counter")
	for _, rt := range names {
		t.Sample("nutriserve_http_requests_total", routes[rt].Requests, "route", rt)
	}

	t.Header("nutriserve_http_responses_total", "Responses sent, by route and status class.", "counter")
	for _, rt := range names {
		classes := make([]string, 0, len(routes[rt].ByClass))
		for c := range routes[rt].ByClass {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			t.Sample("nutriserve_http_responses_total", routes[rt].ByClass[c], "route", rt, "class", c)
		}
	}

	const hist = "nutriserve_http_request_duration_seconds"
	t.Header(hist, "Request latency, by route.", "histogram")
	for _, rt := range names {
		lat := routes[rt].Latency
		var cum uint64
		for _, b := range lat.Buckets {
			cum += b.Count
			t.Sample(hist+"_bucket", cum, "route", rt, "le", strconv.FormatFloat(b.UpperMs/1000, 'g', -1, 64))
		}
		t.Sample(hist+"_bucket", lat.Count, "route", rt, "le", "+Inf")
		t.Sample(hist+"_sum", lat.SumMs/1000, "route", rt)
		t.Sample(hist+"_count", lat.Count, "route", rt)
	}
}
