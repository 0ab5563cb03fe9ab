package memo

import (
	"fmt"
	"sync"
	"testing"
)

// TestHashVariantsAgree: every Get/Put spelling (string, bytes, with or
// without a precomputed hash) must hit the same entry.
func TestHashVariantsAgree(t *testing.T) {
	c := New[string](128)
	key := "2 cups all-purpose flour"
	h := HashString(key)
	if h != Hash([]byte(key)) {
		t.Fatal("Hash and HashString disagree")
	}
	c.PutHash(h, key, "v1")
	if v, ok := c.Get(key); !ok || v != "v1" {
		t.Fatalf("Get after PutHash = %q, %v", v, ok)
	}
	if v, ok := c.GetHash(h, key); !ok || v != "v1" {
		t.Fatalf("GetHash = %q, %v", v, ok)
	}
	if v, ok := c.GetBytes([]byte(key)); !ok || v != "v1" {
		t.Fatalf("GetBytes = %q, %v", v, ok)
	}
	if v, ok := c.GetBytesHash(h, []byte(key)); !ok || v != "v1" {
		t.Fatalf("GetBytesHash = %q, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 4 || st.Misses != 0 {
		t.Fatalf("stats after 4 hits: %+v", st)
	}
}

// TestPerShardStatsSumExact: the per-shard counters must aggregate to
// the exact lifetime totals under a concurrent storm — the "batched
// flush to the aggregate" happens on read and may not lose updates.
func TestPerShardStatsSumExact(t *testing.T) {
	const (
		goroutines = 32
		perG       = 500
	)
	c := NewSharded[int](1<<14, 16)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := fmt.Sprintf("g%d-i%d", g, i)
				c.Get(key) // always a miss: keys are unique per goroutine
				c.Put(key, i)
				c.Get(key) // always a hit: capacity exceeds total keys
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if want := uint64(goroutines * perG); st.Hits != want {
		t.Errorf("hits = %d, want %d", st.Hits, want)
	}
	if want := uint64(goroutines * perG); st.Misses != want {
		t.Errorf("misses = %d, want %d", st.Misses, want)
	}
	if st.Evictions != 0 {
		t.Errorf("evictions = %d, want 0 (capacity %d > %d keys)", st.Evictions, c.Capacity(), goroutines*perG)
	}
	if st.Entries != goroutines*perG {
		t.Errorf("entries = %d, want %d", st.Entries, goroutines*perG)
	}
}
