package core

// Hot-swappable database snapshots (DESIGN.md §13). The estimator's
// database, matcher and interned vocabulary version together behind one
// atomic pointer: a request pins the pointer once and computes entirely
// against that Snapshot, so a concurrent Install can never give it a
// matcher from one database and nutrient vectors from another. RCU
// rather than an RWMutex: readers pay one atomic load (the serving hot
// path keeps its 0 allocs/op and gains no lock), writers build the new
// state off to the side and publish it with one store — in-flight
// requests simply finish on the snapshot they pinned.
//
// Cache consistency across a swap is the subtle part. Three caches hold
// snapshot-derived results: the phrase and match memo caches and the
// per-slot L1s (shard.go). The invalidation protocol:
//
//   - Snapshot.gen is the invalidation generation, carried INSIDE the
//     snapshot so (state, generation) are read atomically together.
//     Install bumps gen and version; ObserveUnits installs a copy of
//     the current snapshot with only gen bumped (same db/matcher —
//     unit statistics changed, not the database).
//
//   - pin() snapshots the memo caches' purge generations BEFORE the
//     atomic pointer load, and results are stored with PutHashGen.
//     Writers publish the new snapshot pointer FIRST, then Purge. With
//     Go's sequentially consistent atomics, a reader that captured a
//     post-purge cache generation must observe the post-swap pointer
//     on its subsequent load; a reader that captured a pre-purge
//     generation has its store either dropped (generation mismatch,
//     checked under the shard lock) or landed before the purge clears
//     that shard. Either way no result computed against snapshot N is
//     readable from a cache after the purge that retired N.
//
//   - Slot L1s stamp their contents with the pinned snapshot's gen at
//     claim time (claimSlot) and clear on mismatch, tying every cached
//     entry to the generation that produced it.
//
// One deliberate softness: a flight-coalescing waiter that pins the new
// snapshot microseconds after a swap can still share the old-snapshot
// result of a leader that started before it (the result is never
// cached — its store is generation-dropped). The ISSUE contract is
// byte-identical results for requests that started before the swap,
// which the per-request pin gives deterministically; closing the
// flight window would serialize every miss on the swap lock for a
// window shorter than one pipeline pass. Documented in DESIGN.md §13.

import (
	"errors"
	"fmt"

	"nutriprofile/internal/match"
	"nutriprofile/internal/usda"
)

// Snapshot is one immutable (database, matcher, vocabulary) triple plus
// its version identity. Estimation reads never mix state across two
// snapshots: every request resolves descriptions, weight tables and
// nutrient vectors against the single snapshot it pinned.
type Snapshot struct {
	db      *usda.DB
	matcher *match.Matcher
	// version counts database swaps (Install), starting at 1 for the
	// boot database. Monotonic; /v1/stats and /admin/reload expose it.
	version uint64
	// gen counts cache invalidations: every Install AND every
	// ObserveUnits pass bumps it. The slot L1s key their contents on it.
	gen uint64
	// source describes where the database came from (boot flag, image
	// path) for observability.
	source string
}

// DB returns the snapshot's composition table.
func (s *Snapshot) DB() *usda.DB { return s.db }

// Matcher returns the snapshot's description matcher.
func (s *Snapshot) Matcher() *match.Matcher { return s.matcher }

// Version returns the snapshot's swap version.
func (s *Snapshot) Version() uint64 { return s.version }

// Source describes the snapshot's origin.
func (s *Snapshot) Source() string { return s.source }

// view is one request's pinned read context: the snapshot plus the
// memo-cache generations captured BEFORE the snapshot load (the order
// the no-stale-store argument above requires). Threaded by value
// through the estimation call chain.
type view struct {
	snap      *Snapshot
	phraseGen uint64
	matchGen  uint64
}

// pin captures a consistent read context. Cache generations first, then
// the snapshot pointer — never reorder these loads (see the package
// comment for why).
func (e *Estimator) pin() view {
	var v view
	if e.phraseCache != nil {
		v.phraseGen = e.phraseCache.Gen()
		v.matchGen = e.matchCache.Gen()
	}
	v.snap = e.snap.Load()
	return v
}

// Current returns the live snapshot. Requests that need consistency
// across multiple calls should resolve everything through one Snapshot
// rather than calling accessors repeatedly.
func (e *Estimator) Current() *Snapshot { return e.snap.Load() }

// SnapshotStats is the wire form of the live snapshot's identity
// (nutriserve GET /v1/stats, POST /admin/reload).
type SnapshotStats struct {
	Version uint64 `json:"version"`
	Gen     uint64 `json:"gen"`
	Foods   int    `json:"foods"`
	Source  string `json:"source"`
}

// SnapshotStats reports the live snapshot's identity.
func (e *Estimator) SnapshotStats() SnapshotStats {
	s := e.snap.Load()
	return SnapshotStats{Version: s.version, Gen: s.gen, Foods: s.db.Len(), Source: s.source}
}

// Install atomically replaces the estimator's database under live
// traffic: requests already pinned to the old snapshot finish on it
// unperturbed, requests pinned after the store see only the new one.
// The matcher is built before the swap — from the prebuilt idx
// (a baked image, validated structurally) when given, otherwise by
// indexing db's descriptions — so the swap itself is one pointer store
// plus cache purges. Concurrent Installs serialize; versions are
// strictly monotonic.
func (e *Estimator) Install(db *usda.DB, idx *match.Index, source string) (SnapshotStats, error) {
	if db == nil {
		return SnapshotStats{}, errors.New("core: nil database")
	}
	var m *match.Matcher
	if idx != nil {
		var err error
		if m, err = match.NewFromIndex(db, match.DefaultOptions(), idx); err != nil {
			return SnapshotStats{}, fmt.Errorf("core: installing database: %w", err)
		}
	} else {
		m = match.NewDefault(db)
	}

	e.swapMu.Lock()
	old := e.snap.Load()
	ns := &Snapshot{
		db: db, matcher: m,
		version: old.version + 1,
		gen:     old.gen + 1,
		source:  source,
	}
	// Publish first, purge second: a reader that observes a post-purge
	// cache generation is thereby guaranteed to load ns, not old.
	e.snap.Store(ns)
	if e.phraseCache != nil {
		e.phraseCache.Purge()
		e.matchCache.Purge()
	}
	e.swapMu.Unlock()
	return SnapshotStats{Version: ns.version, Gen: ns.gen, Foods: db.Len(), Source: source}, nil
}
