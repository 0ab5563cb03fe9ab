package metrics

import "sync/atomic"

// Striped is a write-striped counter: each slot's value lives on its
// own cache line, so writers pinned to distinct slots (the workers of
// core's recipe batch pool) never contend or false-share. Reads sum
// every stripe — the aggregate is assembled on demand, never maintained
// per increment.
//
// The intended write pattern is batched: a worker accumulates a plain
// local count for a whole batch and flushes it with one Add at the end,
// so even the slot-local atomic is paid once per batch rather than once
// per phrase. Adds remain atomic (not plain stores) because slot
// ownership is advisory — two concurrent batch calls can fall back to
// the same overflow slot.
//
// The zero value is not usable; construct with NewStriped.
type Striped struct {
	slots []stripe
}

// stripe pads each counter to a 64-byte line (plus the next line's
// worth of slack, since the allocator may not line-align the slice).
type stripe struct {
	n atomic.Uint64
	_ [56]byte
}

// NewStriped builds a counter with n stripes (minimum 1).
func NewStriped(n int) *Striped {
	if n < 1 {
		n = 1
	}
	return &Striped{slots: make([]stripe, n)}
}

// Stripes returns the stripe count.
func (s *Striped) Stripes() int { return len(s.slots) }

// Add accumulates delta into stripe i (modulo the stripe count, so a
// worker index out of range folds onto a valid stripe instead of
// panicking).
func (s *Striped) Add(i int, delta uint64) {
	s.slots[i%len(s.slots)].n.Add(delta)
}

// Sum aggregates every stripe. Monotonic (each stripe is), though not
// atomic across stripes under concurrent writes — fine for monitoring
// and for totals read after writers quiesce, which are exact.
func (s *Striped) Sum() uint64 {
	var total uint64
	for i := range s.slots {
		total += s.slots[i].n.Load()
	}
	return total
}
