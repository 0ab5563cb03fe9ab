package match

import (
	"reflect"
	"sync"
	"testing"

	"nutriprofile/internal/usda"
)

// TestSessionMatchEquivalence: a Session must return byte-identical
// results to the pool-backed Match/MatchFuzzy across a query mix that
// exercises hits, misses, and the fuzzy retry.
func TestSessionMatchEquivalence(t *testing.T) {
	m := NewDefault(usda.Seed())
	queries := []Query{
		{Name: "low fat sour cream"},
		{Name: "butter"},
		{Name: "all purpose flour"},
		{Name: "zzz no such ingredient"},
		{Name: "buttr"}, // typo: exact misses, fuzzy recovers
		{Name: "onion", State: "chopped"},
		{Name: ""},
	}
	s := m.NewSession()
	defer s.Close()
	for _, q := range queries {
		wantR, wantOK := m.Match(q)
		gotR, gotOK := s.Match(q)
		if gotOK != wantOK || !reflect.DeepEqual(gotR, wantR) {
			t.Errorf("Session.Match(%+v) = (%+v, %v), Matcher.Match = (%+v, %v)", q, gotR, gotOK, wantR, wantOK)
		}
		wantR, wantOK = m.MatchFuzzy(q)
		gotR, gotOK = s.MatchFuzzy(q)
		if gotOK != wantOK || !reflect.DeepEqual(gotR, wantR) {
			t.Errorf("Session.MatchFuzzy(%+v) = (%+v, %v), Matcher.MatchFuzzy = (%+v, %v)", q, gotR, gotOK, wantR, wantOK)
		}
	}
}

// TestRanksCountsSessionQueries: Ranks counts every ranking query, pooled
// or on a pinned Session, while PoolGets counts only arena checkouts —
// one per pooled query and one per Session.
func TestRanksCountsSessionQueries(t *testing.T) {
	m := NewDefault(usda.Seed())
	const k = 5
	before := m.Stats()
	s := m.NewSession()
	for i := 0; i < k; i++ {
		m.Match(Query{Name: "low fat sour cream"})
		s.Match(Query{Name: "butter"})
	}
	s.Close()
	after := m.Stats()
	if got := after.Ranks - before.Ranks; got != 2*k {
		t.Errorf("Ranks grew by %d over %d Match + %d Session.Match calls, want %d", got, k, k, 2*k)
	}
	if got := after.PoolGets - before.PoolGets; got != k+1 {
		t.Errorf("PoolGets grew by %d, want %d (one per Match, one for the Session)", got, k+1)
	}
}

// TestSessionWarmZeroAllocs: after one warming query, Session.Match
// must allocate nothing — the arena is pinned, so not even a pool
// checkout happens per call.
func TestSessionWarmZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	m := NewDefault(usda.Seed())
	s := m.NewSession()
	defer s.Close()
	q := Query{Name: "low fat sour cream"}
	s.Match(q) // warm the arena
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := s.Match(q); !ok {
			t.Fatal("query stopped matching")
		}
	}); allocs != 0 {
		t.Fatalf("warm Session.Match allocates %v per run, want 0", allocs)
	}
}

// TestSessionsConcurrent: distinct sessions on one shared Matcher must
// be independent — the per-worker usage pattern of core's batch pool.
func TestSessionsConcurrent(t *testing.T) {
	m := NewDefault(usda.Seed())
	queries := []Query{
		{Name: "butter"},
		{Name: "all purpose flour"},
		{Name: "low fat sour cream"},
		{Name: "onion"},
	}
	want := make([]Result, len(queries))
	for i, q := range queries {
		want[i], _ = m.Match(q)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := m.NewSession()
			defer s.Close()
			for rep := 0; rep < 200; rep++ {
				for i, q := range queries {
					r, ok := s.Match(q)
					if !ok || !reflect.DeepEqual(r, want[i]) {
						t.Errorf("concurrent Session.Match(%+v) = (%+v, %v), want %+v", q, r, ok, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSessionCloseIdempotent: double Close must not corrupt the pool.
func TestSessionCloseIdempotent(t *testing.T) {
	m := NewDefault(usda.Seed())
	s := m.NewSession()
	s.Close()
	s.Close() // no-op, must not panic or double-free the arena
	s2 := m.NewSession()
	defer s2.Close()
	if _, ok := s2.Match(Query{Name: "butter"}); !ok {
		t.Fatal("pool corrupted after double Close")
	}
}
