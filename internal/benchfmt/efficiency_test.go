package benchfmt

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// effSample is one benchmark swept with -cpu 1,4,8 (perfect scaling at
// 4, sublinear at 8) plus a series with no 1-proc baseline and a
// single-proc-only series, which must both be skipped.
const effSample = `goos: linux
BenchmarkEstimateRecipes/parallel_cached     	     100	   8000000 ns/op	  50000 phrases/s
BenchmarkEstimateRecipes/parallel_cached-4   	     400	   2000000 ns/op	 200000 phrases/s
BenchmarkEstimateRecipes/parallel_cached-8   	     500	   1600000 ns/op	 250000 phrases/s
BenchmarkNoBaseline-4               	     100	   1000000 ns/op
BenchmarkSoloSeq                    	     100	   1000000 ns/op
PASS
`

func parseEff(t *testing.T, s string) []Entry {
	t.Helper()
	entries, err := Parse(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

func TestParallelEfficiency(t *testing.T) {
	effs := ParallelEfficiency(parseEff(t, effSample))
	if len(effs) != 2 {
		t.Fatalf("got %d efficiencies, want 2 (no-baseline and solo series skipped): %+v", len(effs), effs)
	}
	// eff(4) = 8e6 / (4 × 2e6) = 1.0; eff(8) = 8e6 / (8 × 1.6e6) = 0.625.
	if e := effs[0]; e.Name != "BenchmarkEstimateRecipes/parallel_cached" || e.Procs != 4 || math.Abs(e.Value-1.0) > 1e-9 {
		t.Errorf("eff(4) = %+v, want 1.0", e)
	}
	if e := effs[1]; e.Procs != 8 || math.Abs(e.Value-0.625) > 1e-9 {
		t.Errorf("eff(8) = %+v, want 0.625", e)
	}
}

func TestParallelEfficiencyLastEntryWins(t *testing.T) {
	// A rerun of the same series later in the file replaces the first
	// measurement, mirroring Gate's map-build semantics.
	s := effSample + "BenchmarkEstimateRecipes/parallel_cached-4 200 4000000 ns/op\n"
	effs := ParallelEfficiency(parseEff(t, s))
	if e := effs[0]; e.Procs != 4 || math.Abs(e.Value-0.5) > 1e-9 {
		t.Errorf("eff(4) after rerun = %+v, want 0.5 (8e6 / (4 × 4e6))", e)
	}
}

func TestGateEfficiencyPass(t *testing.T) {
	old := parseEff(t, effSample)
	// 8-proc series 8% less efficient: 1.6e6 → 1.74e6 ns/op gives
	// eff 0.625 → 0.575, a 8.05% drop — inside the 10% budget.
	s := strings.Replace(effSample, "1600000 ns/op", "1740000 ns/op", 1)
	if regs := GateEfficiency(old, parseEff(t, s), 0.10); len(regs) != 0 {
		t.Fatalf("8%% efficiency drop tripped the 10%% gate: %+v", regs)
	}
}

func TestGateEfficiencyFail(t *testing.T) {
	old := parseEff(t, effSample)
	// 4-proc series halves in efficiency (2e6 → 4e6 ns/op while the
	// 1-proc baseline is unchanged): a 50% drop must fail the gate and
	// name the -4 series.
	s := strings.Replace(effSample, "2000000 ns/op", "4000000 ns/op", 1)
	regs := GateEfficiency(old, parseEff(t, s), 0.10)
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1: %+v", len(regs), regs)
	}
	if regs[0].Name != "BenchmarkEstimateRecipes/parallel_cached-4" {
		t.Errorf("regression names %q, want the -4 series", regs[0].Name)
	}
	if !strings.Contains(regs[0].Reason, "parallel efficiency") {
		t.Errorf("reason %q does not mention parallel efficiency", regs[0].Reason)
	}
}

func TestGateEfficiencyIgnoresOneSidedSeries(t *testing.T) {
	old := parseEff(t, effSample)
	// The candidate run lost its 1-proc baseline: no efficiency can be
	// derived, so nothing gates — like Gate's added/removed rule.
	s := strings.Replace(effSample,
		"BenchmarkEstimateRecipes/parallel_cached     	     100	   8000000 ns/op	  50000 phrases/s\n", "", 1)
	if regs := GateEfficiency(old, parseEff(t, s), 0.10); len(regs) != 0 {
		t.Fatalf("series without baseline should be ignored: %+v", regs)
	}
	// And a slower baseline with proportionally slower parallel runs is
	// an absolute slowdown but NOT an efficiency regression.
	slower := strings.NewReplacer(
		"8000000 ns/op", "16000000 ns/op",
		"2000000 ns/op", "4000000 ns/op",
		"1600000 ns/op", "3200000 ns/op",
	).Replace(effSample)
	if regs := GateEfficiency(old, parseEff(t, slower), 0.10); len(regs) != 0 {
		t.Fatalf("uniform 2× slowdown must not trip the efficiency gate: %+v", regs)
	}
}

func TestWriteJSONIncludesEfficiency(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, parseEff(t, effSample)); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Efficiency) != 2 {
		t.Fatalf("artifact carries %d efficiency rows, want 2: %+v", len(rep.Efficiency), rep.Efficiency)
	}
	if rep.Efficiency[0].Procs != 4 || rep.Efficiency[1].Procs != 8 {
		t.Errorf("efficiency rows not sorted by procs: %+v", rep.Efficiency)
	}
}
