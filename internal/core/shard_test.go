package core

// Tests for the per-core sharded batch layer (shard.go): partition
// stability, sharded/sequential equivalence, the slot-ownership
// invariant, batched stat-flush totals, and L1 invalidation. The storm
// tests run 32 goroutines against one Estimator and are the -race
// proof obligations of DESIGN.md §12.

import (
	"fmt"
	"sync"
	"testing"

	"nutriprofile/internal/memo"
	"nutriprofile/internal/usda"
)

// stormPhrases flattens a corpus and tiles it with repeats so slot L1s
// see both first-contact and repeat traffic.
func stormPhrases(t *testing.T) []string {
	t.Helper()
	corpus, _ := testCorpus(t, 40)
	flat := corpus.Phrases()
	out := make([]string, 0, len(flat)*3)
	for rep := 0; rep < 3; rep++ {
		out = append(out, flat...)
	}
	return out
}

// TestSlotIndexStableUnderStorm: the phrase→slot mapping is a pure
// function of the phrase bytes — 32 goroutines hashing the same phrases
// concurrently must all agree with the single-threaded answer, and the
// answer must be the memo-family hash truncated to the slot width.
func TestSlotIndexStableUnderStorm(t *testing.T) {
	phrases := stormPhrases(t)
	want := make([]int, len(phrases))
	for i, p := range phrases {
		want[i] = slotIndex(p)
		if exp := int(memo.HashString(p) & (numSlots - 1)); want[i] != exp {
			t.Fatalf("slotIndex(%q) = %d, want memo hash slot %d", p, want[i], exp)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range phrases {
				if got := slotIndex(p); got != want[i] {
					t.Errorf("slotIndex(%q) = %d concurrently, want %d", p, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestShardedBatchMatchesSequential: the sharded parallel dispatch, the
// uncached work-stealing pool, and the sequential path must produce
// byte-identical output on the same input. (The cached work-stealing
// pool is pinned by TestEstimateRecipesSharedWorkers.)
func TestShardedBatchMatchesSequential(t *testing.T) {
	phrases := stormPhrases(t)

	ref := NewDefault()
	want := make([]string, len(phrases))
	for i, r := range ref.EstimateBatchWorkers(phrases, 1) {
		want[i] = fmt.Sprintf("%+v", r)
	}

	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"sharded", Options{CacheSize: 1 << 12}},
		{"uncached", Options{}},
	} {
		for _, workers := range []int{2, 4, 8, 32} {
			e, err := New(usda.Seed(), nil, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			got := e.EstimateBatchWorkers(phrases, workers)
			for i := range got {
				if s := fmt.Sprintf("%+v", got[i]); s != want[i] {
					t.Fatalf("%s workers=%d: phrase %q diverged:\n got: %s\nwant: %s",
						tc.name, workers, phrases[i], s, want[i])
				}
			}
		}
	}
}

// TestShardedBatchStorm32 hammers one cached estimator with 32
// concurrent sharded batches. Slot claims collide (TryLock), so this
// exercises the nil-slot fallback; every batch must still return the
// sequential reference results. Run under -race this is the proof that
// slot ownership plus the shared L2 are data-race free.
func TestShardedBatchStorm32(t *testing.T) {
	phrases := stormPhrases(t)

	ref := NewDefault()
	want := make([]string, len(phrases))
	for i, r := range ref.EstimateBatchWorkers(phrases, 1) {
		want[i] = fmt.Sprintf("%+v", r)
	}

	e, err := New(usda.Seed(), nil, Options{CacheSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := e.EstimateBatchWorkers(phrases, 1+g%4)
			for i := range got {
				if s := fmt.Sprintf("%+v", got[i]); s != want[i] {
					t.Errorf("goroutine %d: phrase %q diverged:\n got: %s\nwant: %s", g, phrases[i], s, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestShardL1OwnershipInvariant: after sharded batches, every key in a
// slot's L1 must hash to that very slot — the invariant that lets a
// worker read and write its owned slots without per-phrase locking.
func TestShardL1OwnershipInvariant(t *testing.T) {
	phrases := stormPhrases(t)
	e, err := New(usda.Seed(), nil, Options{CacheSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		e.EstimateBatchWorkers(phrases, workers)
	}
	entries := 0
	for i := range e.slots {
		sl := &e.slots[i]
		sl.mu.Lock()
		for k := range sl.l1 {
			entries++
			if got := slotIndex(k); got != i {
				t.Errorf("slot %d holds %q which hashes to slot %d", i, k, got)
			}
		}
		sl.mu.Unlock()
	}
	if entries == 0 {
		t.Fatal("no L1 entries were populated by sharded batches")
	}
}

// TestShardStatsFlushTotals: workers accumulate stats locally and flush
// once per batch; the striped aggregates must still sum to the exact
// true totals once all batches drain — 32 goroutines, no lost updates.
func TestShardStatsFlushTotals(t *testing.T) {
	phrases := stormPhrases(t)
	e, err := New(usda.Seed(), nil, Options{CacheSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 32
	workersPer := 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.EstimateBatchWorkers(phrases, workersPer)
		}()
	}
	wg.Wait()

	st := e.ShardStats()
	if want := uint64(goroutines * len(phrases)); st.Phrases != want {
		t.Errorf("Phrases = %d, want exactly %d", st.Phrases, want)
	}
	if want := uint64(goroutines * workersPer); st.WorkerFlushes != want {
		t.Errorf("WorkerFlushes = %d, want exactly %d (one per worker per batch)", st.WorkerFlushes, want)
	}
	if st.L1Hits > st.Phrases {
		t.Errorf("L1Hits = %d exceeds Phrases = %d", st.L1Hits, st.Phrases)
	}
	if st.L1Hits == 0 {
		t.Error("L1Hits = 0: repeat traffic never hit a slot L1")
	}
	if st.Slots != numSlots {
		t.Errorf("Slots = %d, want %d", st.Slots, numSlots)
	}
	if st.Envs == 0 || st.Envs > goroutines*uint64(workersPer) {
		t.Errorf("Envs = %d, want in [1, %d]", st.Envs, goroutines*workersPer)
	}
}

// TestSlotL1HitsFeedAdmissionSketch pins the L1→L2 frequency feed:
// every slot-L1 hit must replay its phrase's L2 key hash into the
// TinyLFU admission sketch (memo.TouchHash), so the exact algebra
// phrase-cache Touches == shard L1Hits holds — the hottest phrases
// (absorbed by the L1) keep accruing the frequency that wins them
// admission duels against cold bulk-scan traffic.
func TestSlotL1HitsFeedAdmissionSketch(t *testing.T) {
	phrases := stormPhrases(t)
	e, err := New(usda.Seed(), nil, Options{CacheSize: 1 << 12, CachePolicy: memo.PolicyTinyLFU})
	if err != nil {
		t.Fatal(err)
	}
	e.EstimateBatchWorkers(phrases, 4)
	e.EstimateBatchWorkers(phrases, 4)

	st := e.ShardStats()
	if st.L1Hits == 0 {
		t.Fatal("L1Hits = 0: repeat traffic never hit a slot L1")
	}
	ps, _ := e.CacheStats()
	if ps.Touches != st.L1Hits {
		t.Errorf("phrase-cache Touches = %d, want exactly L1Hits = %d", ps.Touches, st.L1Hits)
	}
}

// TestObserveUnitsInvalidatesSlotL1 pins the epoch contract: a sharded
// batch warms the slot L1s, ObserveUnits changes the unit statistics,
// and the next sharded batch must serve recomputed results — not the
// stale L1 entries.
func TestObserveUnitsInvalidatesSlotL1(t *testing.T) {
	e, err := New(usda.Seed(), nil, Options{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	ref := NewDefault()

	// Two copies so the parallel dispatcher has > 1 item per worker.
	probe := []string{"garlic , minced", "garlic , minced"}
	before := e.EstimateBatchWorkers(probe, 2)
	wantBefore := ref.EstimateIngredient(probe[0])
	if fmt.Sprintf("%+v", before[0]) != fmt.Sprintf("%+v", wantBefore) {
		t.Fatal("sharded estimator diverged before observation")
	}

	teach := []string{"2 cloves garlic", "3 cloves garlic , crushed"}
	e.ObserveUnits(teach)
	ref.ObserveUnits(teach)

	after := e.EstimateBatchWorkers(probe, 2)
	want := ref.EstimateIngredient(probe[0])
	for i := range after {
		if fmt.Sprintf("%+v", after[i]) != fmt.Sprintf("%+v", want) {
			t.Fatalf("stale slot L1 after ObserveUnits:\n got: %+v\nwant: %+v", after[i], want)
		}
	}
	if want.UnitOrigin == UnitMostFrequent && after[0].UnitOrigin != UnitMostFrequent {
		t.Fatal("observation did not reach the sharded path")
	}
}

// TestEstimateRecipesSharedWorkers: the recipe-corpus path runs on the
// same worker environments; outcomes must match the sequential recipe
// API exactly. At workers=4 on a caching estimator this is the
// work-stealing pool serving repeats through the shared L2.
func TestEstimateRecipesSharedWorkers(t *testing.T) {
	corpus, phrases := testCorpus(t, 30)
	inputs := make([]RecipeInput, len(phrases))
	for i := range phrases {
		inputs[i] = RecipeInput{Phrases: phrases[i], Servings: corpus.Recipes[i].Servings}
	}
	ref := NewDefault()
	want := make([]string, len(inputs))
	for i, in := range inputs {
		rr, err := ref.EstimateRecipeCooked(in.Phrases, in.Servings, in.Method)
		want[i] = renderResult(rr, err)
	}
	e, err := New(usda.Seed(), nil, Options{CacheSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		for i, o := range e.EstimateRecipes(inputs, workers) {
			if got := renderResult(o.Result, o.Err); got != want[i] {
				t.Fatalf("workers=%d recipe %d diverged:\n got: %s\nwant: %s", workers, i, got, want[i])
			}
		}
	}
}
