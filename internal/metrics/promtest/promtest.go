// Package promtest is a strict parser for the Prometheus text format
// (0.0.4) subset that /metrics emits, shared by the exposition tests of
// internal/metrics and internal/server. It fails the test on any
// malformed line, on a TYPE not immediately preceded by its HELP, on a
// sample outside its family's block, on an invalid label escape and on
// a duplicate series.
package promtest

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// Sample is one parsed sample line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Key renders the sample's series identity: name plus labels (fmt
// prints map keys sorted).
func (s Sample) Key() string { return fmt.Sprintf("%s%v", s.Name, s.Labels) }

// Family is one metric family: its header and samples in order.
type Family struct {
	Help, Type string
	Samples    []Sample
}

// Parse parses a whole exposition into families keyed by name.
func Parse(t testing.TB, text string) map[string]*Family {
	t.Helper()
	fams := map[string]*Family{}
	seen := map[string]bool{}
	var lastHelp, current string
	for ln, line := range strings.Split(text, "\n") {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("line %d (%q): %s", ln+1, line, fmt.Sprintf(format, args...))
		}
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, ok := strings.Cut(rest, " ")
			if !ok || name == "" || help == "" {
				fail("malformed HELP")
			}
			if fams[name] != nil {
				fail("duplicate HELP for %s", name)
			}
			fams[name] = &Family{Help: help}
			lastHelp = name
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || name != lastHelp {
				fail("TYPE not immediately preceded by its HELP")
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				fail("unknown type %q", typ)
			}
			fams[name].Type = typ
			current = name
			continue
		}
		if strings.HasPrefix(line, "#") {
			fail("unexpected comment")
		}
		fam := fams[current]
		if fam == nil {
			fail("sample before any family header")
		}
		s, err := parseSample(line)
		if err != nil {
			fail("%v", err)
		}
		base := s.Name
		if fam.Type == "histogram" {
			base = strings.TrimSuffix(base, "_bucket")
			base = strings.TrimSuffix(base, "_sum")
			base = strings.TrimSuffix(base, "_count")
		}
		if base != current {
			fail("sample %s outside its family block (current %s)", s.Name, current)
		}
		if seen[s.Key()] {
			fail("duplicate series")
		}
		seen[s.Key()] = true
		fam.Samples = append(fam.Samples, s)
	}
	return fams
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	i := strings.IndexByte(rest, '{')
	if i < 0 {
		name, v, ok := strings.Cut(rest, " ")
		if !ok {
			return s, fmt.Errorf("sample without value")
		}
		s.Name, rest = name, v
	} else {
		s.Name, rest = rest[:i], rest[i+1:]
		for {
			eq := strings.IndexByte(rest, '=')
			if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				return s, fmt.Errorf("malformed label pair")
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			j := 0
			for ; j < len(rest) && rest[j] != '"'; j++ {
				if rest[j] != '\\' {
					val.WriteByte(rest[j])
					continue
				}
				if j++; j >= len(rest) {
					return s, fmt.Errorf("dangling escape")
				}
				switch rest[j] {
				case '\\', '"':
					val.WriteByte(rest[j])
				case 'n':
					val.WriteByte('\n')
				default:
					return s, fmt.Errorf("invalid escape \\%c", rest[j])
				}
			}
			if j >= len(rest) {
				return s, fmt.Errorf("unterminated label value")
			}
			if _, dup := s.Labels[key]; dup {
				return s, fmt.Errorf("duplicate label %s", key)
			}
			s.Labels[key] = val.String()
			rest = rest[j+1:]
			if r, ok := strings.CutPrefix(rest, ","); ok {
				rest = r
				continue
			}
			r, ok := strings.CutPrefix(rest, "} ")
			if !ok {
				return s, fmt.Errorf("malformed label list tail %q", rest)
			}
			rest = r
			break
		}
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value: %v", err)
	}
	s.Value = v
	return s, nil
}

// Value returns the value of the unique sample of family fam with the
// given name and exactly the given labels.
func Value(t testing.TB, fams map[string]*Family, fam, name string, labels map[string]string) float64 {
	t.Helper()
	f := fams[fam]
	if f == nil {
		t.Fatalf("family %s not exposed", fam)
	}
	want := Sample{Name: name, Labels: labels}.Key()
	for _, s := range f.Samples {
		if s.Key() == want {
			return s.Value
		}
	}
	t.Fatalf("no sample %s%v in family %s", name, labels, fam)
	return 0
}
