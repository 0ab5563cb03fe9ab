package metrics

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100}) // ms bounds
	h.Observe(500 * time.Microsecond)        // ≤ 1ms
	h.Observe(1 * time.Millisecond)          // boundary: inclusive upper bound
	h.Observe(5 * time.Millisecond)          // ≤ 10ms
	h.Observe(50 * time.Millisecond)         // ≤ 100ms
	h.Observe(2 * time.Second)               // overflow

	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count %d, want 5", s.Count)
	}
	want := []uint64{2, 1, 1}
	for i, b := range s.Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket %d (≤%vms): %d, want %d", i, b.UpperMs, b.Count, want[i])
		}
	}
	if s.Overflow != 1 {
		t.Fatalf("overflow %d, want 1", s.Overflow)
	}
	if s.SumMs < 2056 || s.SumMs > 2057 {
		t.Fatalf("sum %vms, want ≈2056.5", s.SumMs)
	}
	if s.MeanMs <= 0 {
		t.Fatalf("mean %v", s.MeanMs)
	}
}

// TestDefaultBucketsLadder pins DefaultBuckets to the 1–2.5–5 ladder
// from 1 µs to 1 s (bounds are in milliseconds).
func TestDefaultBucketsLadder(t *testing.T) {
	steps := []float64{1, 2.5, 5}
	var want []float64
	for decade := 0.001; decade < 1000; decade *= 10 {
		for _, s := range steps {
			want = append(want, s*decade)
		}
	}
	want = append(want, 1000)
	if len(DefaultBuckets) != len(want) {
		t.Fatalf("%d default buckets, want %d", len(DefaultBuckets), len(want))
	}
	for i, b := range DefaultBuckets {
		if math.Abs(b-want[i]) > 1e-9*want[i] {
			t.Errorf("bucket %d = %vms, want %vms", i, b, want[i])
		}
	}
	h := NewHistogram(nil)
	h.Observe(5 * time.Microsecond)
	if s := h.Snapshot(); s.Buckets[2].UpperMs != 0.005 || s.Buckets[2].Count != 1 {
		t.Errorf("5µs landed in %+v, want the ≤0.005ms bucket", s.Buckets)
	}
}

func TestRouteStatusClasses(t *testing.T) {
	reg := NewRegistry()
	rt := reg.Route("/x")
	rt.Observe(200, time.Millisecond)
	rt.Observe(204, time.Millisecond)
	rt.Observe(404, time.Millisecond)
	rt.Observe(500, time.Millisecond)
	rt.Observe(999, time.Millisecond) // out of range → "other"

	s := reg.Snapshot().Routes["/x"]
	if s.Requests != 5 {
		t.Fatalf("requests %d", s.Requests)
	}
	if s.ByClass["2xx"] != 2 || s.ByClass["4xx"] != 1 || s.ByClass["5xx"] != 1 || s.ByClass["other"] != 1 {
		t.Fatalf("classes %+v", s.ByClass)
	}
}

func TestRegistryGauges(t *testing.T) {
	reg := NewRegistry()
	reg.IncInFlight()
	reg.IncInFlight()
	reg.DecInFlight()
	reg.AddShed()
	if reg.InFlight() != 1 || reg.Shed() != 1 {
		t.Fatalf("inflight=%d shed=%d", reg.InFlight(), reg.Shed())
	}
	s := reg.Snapshot()
	if s.InFlight != 1 || s.Shed != 1 {
		t.Fatalf("snapshot %+v", s)
	}
}

// TestRouteGetOrCreateConcurrent hammers Route() for the same and
// different names; run under -race this pins the double-checked map.
func TestRouteGetOrCreateConcurrent(t *testing.T) {
	reg := NewRegistry()
	names := []string{"/a", "/b", "/c"}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				reg.Route(names[(g+i)%len(names)]).Observe(200, time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if got := reg.Snapshot().TotalRequests(); got != 16*500 {
		t.Fatalf("total %d, want %d", got, 16*500)
	}
	// Same name must resolve to the same Route value.
	if reg.Route("/a") != reg.Route("/a") {
		t.Fatal("Route not idempotent")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Route("/v1/estimate").Observe(200, 3*time.Millisecond)
	reg.AddShed()
	b, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Shed != 1 || back.Routes["/v1/estimate"].Requests != 1 {
		t.Fatalf("round-trip lost data: %+v", back)
	}
}
