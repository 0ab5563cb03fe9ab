package match

// The candidate-pruned ranking engine (DESIGN.md §16). rankCands
// produces byte-identical results to the straight-line exhaustive
// engine — kept as the executable spec in prune_test.go — while doing
// strictly less posting work on four classical IR axes:
//
//  1. df-ordered term scheduling. Scored terms are processed
//     rarest-first (anchor terms — the only terms allowed to CREATE
//     candidates — strictly before the folded STATE/TEMP/DF terms), so
//     the accumulators are as discriminating as possible before the
//     long stop-word-like posting lists arrive. Accumulation is
//     commutative integer addition, so any processing order yields the
//     same final counters; order only decides how early the pruning
//     bars engage.
//
//  2. A merged gather+score pass. The exhaustive spec walks every
//     anchor posting list twice — once to mark candidates, once to
//     score them. Here the anchor walk accumulates as it marks, so a
//     query whose heaviest term sits in the NAME itself ("raw chicken")
//     pays for that term's posting list exactly once.
//
//  3. Adaptive posting-vs-candidate scoring. A term in update-only mode
//     must only touch documents that are already candidates. When its
//     posting list is ≥ probeCrossover× longer than the live candidate
//     set, the engine binary-probes the posting list once per candidate
//     (O(|touched|·log df)) instead of walking it (O(df)) — killing the
//     pathology where a 3-candidate anchor set pays a 2,000-entry "raw"
//     posting scan. The posting list is probed rather than the doc's
//     term IDSet because the §II-B(h) priority lives in the posting
//     entry; presence alone would not reproduce the tie-break chain.
//
//  4. Quit/continue early termination (Modified Jaccard, bounded k).
//     Under J* = |A∩B|/|A| every scored term contributes exactly 1/|A|,
//     so intersection COUNTS order scores exactly and two integer bars
//     are available:
//
//     gather→update: before anchor term i (of T total scored terms), a
//     document not yet touched can finish with at most T−i
//     intersections. If at least k live candidates already hold
//     strictly more (worst-at-root bar B > T−i), no unseen document can
//     ever displace them — switch to update-only mode and stop
//     materializing new accumulators for the remaining long-tail terms.
//
//     compaction: in update-only mode, with r terms still unapplied, a
//     candidate with inter+r < B is strictly dominated by ≥ k live
//     candidates and is dropped (unstamped + removed from touched), so
//     late long-tail terms and the final selection scan only survivors.
//
// Exactness of the bars despite the raw-bonus/priority/doc-order
// tie-break chain: both bars demand a STRICT intersection-count
// deficit. Under Modified Jaccard inter_x > inter_y implies
// score_x > score_y (same positive divisor |A|; the counts are tiny
// integers, so float division preserves strict order), and `better`
// consults the tie-break chain only on EQUAL scores — a strictly
// dominated candidate loses to all k witnesses no matter how its raw
// bonus, priority sum or database index compare. Ties (inter+r == B)
// are always kept. The witnesses themselves are never dropped
// (inter ≥ B > inter+r is unsatisfiable for them) and only ever gain
// intersections, so the final selection provably contains the same k
// results, with bit-identical scores, priorities and raw flags, in the
// same total order. Vanilla Jaccard divides by |A∪B|, which varies per
// document, so intersection counts do not order scores across
// documents: the bars stay off (useBar == false) and vanilla queries
// keep df-ordering, the merged gather pass and adaptive probing only —
// all of which are order/lookup changes with identical arithmetic.
//
// MinScore interacts safely with both bars: a dropped candidate either
// fails the MinScore filter (and was never returned by the spec
// engine) or passes it — in which case its k strict dominators pass it
// too and fill the selection ahead of it.

// probeCrossover is the adaptive scoring heuristic: an update-only term
// is binary-probed per candidate instead of walked when its posting
// list is at least this many times longer than the live candidate set.
// A probe costs ~log2(df) branchy comparisons against the walk's one
// sequential load per posting, so the ratio is set well above break-even
// to keep the walk — which also prefetches — on all close calls.
const probeCrossover = 8

// Compaction gates: a compaction pass costs O(|touched|), so it only
// runs when the candidate set is big enough for drops to pay for the
// scan, both absolutely and relative to k.
const (
	compactMinTouched = 64
	compactMinFanout  = 4
)

// schedTerm is one scored term in the df-ordered schedule.
type schedTerm struct {
	id     uint32
	df     int32
	anchor bool
}

// schedBefore orders the term schedule: anchor terms first (they alone
// may create candidates, so they must all run before any candidate set
// is considered final), rarest-first within each group, term ID as the
// deterministic tail key. The order is a pure performance choice —
// accumulation commutes — so any total order here is exact.
func schedBefore(x, y schedTerm) bool {
	if x.anchor != y.anchor {
		return x.anchor
	}
	if x.df != y.df {
		return x.df < y.df
	}
	return x.id < y.id
}

// pruneLocal batches one query's prune counters; flushed to the
// matcher's atomics once per query so the warm path pays a handful of
// atomic adds, not one per decision.
type pruneLocal struct {
	termsSkipped    uint64
	postingsAvoided uint64
	docsDropped     uint64
	compactions     uint64
	probeTerms      uint64
	gatherExit      bool
}

// kthInter returns the k-th largest live intersection count from the
// bar histogram (hist[v] = number of live candidates with inter == v),
// or 0 when fewer than k candidates are live — 0 disables both bars,
// since they require a strict excess.
func kthInter(hist []int32, k int) int32 {
	n := int32(0)
	for v := len(hist) - 1; v >= 1; v-- {
		n += hist[v]
		if n >= int32(k) {
			return int32(v)
		}
	}
	return 0
}

// rankCands runs the scoring engine: prepare the query in ID space,
// accumulate term-at-a-time over posting lists with the pruning above,
// then select and order the top k (all, for k ≤ 0) under the total
// order. The returned slice lives in the arena and is valid until
// putArena. See the file comment for the exactness argument; the
// golden, fuzz and metamorphic differentials in prune_test.go pin it to
// the exhaustive spec byte-for-byte.
func (m *Matcher) rankCands(a *arena, q Query, k int) []cand {
	if !a.prepare(m, q) {
		return nil
	}

	// Build the df-ordered schedule from the scored in-vocabulary terms.
	// Under NameAnchoring the anchor IDs are a sorted subset of a.ids;
	// without it every scored term is an anchor.
	sched := a.sched[:0]
	for _, t := range a.ids {
		anchor := true
		if m.opts.NameAnchoring {
			anchor = containsID(a.anchorIDs, t)
		}
		sched = append(sched, schedTerm{id: t, df: m.postOff[t+1] - m.postOff[t], anchor: anchor})
	}
	// Queries are phrase-sized, so insertion sort beats sort.Slice and
	// allocates nothing.
	for i := 1; i < len(sched); i++ {
		for j := i; j > 0 && schedBefore(sched[j], sched[j-1]); j-- {
			sched[j], sched[j-1] = sched[j-1], sched[j]
		}
	}
	a.sched = sched

	// The bars need intersection counts to order scores exactly, which
	// only Modified Jaccard guarantees, and a bounded selection to bar
	// against.
	useBar := k > 0 && m.opts.Metric == ModifiedJaccard
	var hist []int32
	if useBar {
		need := len(a.ids) + 1
		if cap(a.histo) < need {
			a.histo = make([]int32, need)
		}
		hist = a.histo[:need]
		clear(hist)
	}

	epoch := a.nextEpoch()
	touched := a.touched[:0]
	total := len(sched)
	gather := true
	var pc pruneLocal

	for i, st := range sched {
		if st.anchor && gather {
			// Gather→update bar: an untouched document can finish with at
			// most total−i intersections (this term plus everything after).
			// If the k-th best live candidate strictly beats that, no new
			// candidate can enter the selection — stop creating them.
			if useBar && kthInter(hist, k) > int32(total-i) {
				gather = false
				pc.gatherExit = true
			}
		}
		if st.anchor && gather {
			// Gather mode: the merged gather+score walk. Every posting must
			// be visited — any document here is a live candidate.
			off, end := m.postOff[st.id], m.postOff[st.id+1]
			docs := m.postDocs[off:end]
			pris := m.postPri[off:end]
			for j, d := range docs {
				e := &a.acc[d]
				if e.stamp != epoch {
					*e = accEntry{stamp: epoch, inter: 1, pri: pris[j]}
					touched = append(touched, d)
					if hist != nil {
						hist[1]++
					}
				} else {
					v := e.inter
					e.inter = v + 1
					e.pri += pris[j]
					if hist != nil {
						hist[v]--
						hist[v+1]++
					}
				}
			}
			continue
		}

		// Update-only mode: no anchor term can create candidates anymore
		// (either they are exhausted — anchors sort first — or the gather
		// bar retired them), so dropped documents can never resurface and
		// compaction is exact.
		if len(touched) == 0 {
			// No candidates at all: nothing left can score, and the spec
			// engine would return the same empty selection.
			for _, rest := range sched[i:] {
				pc.termsSkipped++
				pc.postingsAvoided += uint64(rest.df)
			}
			break
		}
		if useBar && len(touched) >= compactMinTouched && len(touched) > compactMinFanout*k {
			// Compaction: r = this term plus everything after it.
			// A touched doc has inter ≥ 1, so a drop (inter+r < bar)
			// requires bar ≥ r+2 — skip the touched walk entirely when
			// the bar cannot be that discriminating yet.
			r := int32(total - i)
			if bar := kthInter(hist, k); bar >= r+2 {
				pc.compactions++
				keep := touched[:0]
				for _, d := range touched {
					e := &a.acc[d]
					if e.inter+r < bar {
						e.stamp = epoch - 1 // unmark: walks and selection skip it
						hist[e.inter]--
						pc.docsDropped++
					} else {
						keep = append(keep, d)
					}
				}
				touched = keep
			}
		}

		off, end := m.postOff[st.id], m.postOff[st.id+1]
		docs := m.postDocs[off:end]
		pris := m.postPri[off:end]
		if int(st.df) > probeCrossover*len(touched) {
			// Candidate-probe mode: binary-search each live candidate in
			// the posting list instead of scanning it.
			pc.probeTerms++
			pc.postingsAvoided += uint64(len(docs))
			for _, d := range touched {
				lo, hi := 0, len(docs)
				for lo < hi {
					mid := int(uint(lo+hi) >> 1)
					if docs[mid] < d {
						lo = mid + 1
					} else {
						hi = mid
					}
				}
				if lo < len(docs) && docs[lo] == d {
					e := &a.acc[d]
					v := e.inter
					e.inter = v + 1
					e.pri += pris[lo]
					if hist != nil {
						hist[v]--
						hist[v+1]++
					}
				}
			}
			continue
		}
		// Posting-walk mode: the classic TAAT update over stamped docs.
		for j, d := range docs {
			e := &a.acc[d]
			if e.stamp == epoch {
				v := e.inter
				e.inter = v + 1
				e.pri += pris[j]
				if hist != nil {
					hist[v]--
					hist[v+1]++
				}
			}
		}
	}
	a.touched = touched
	if len(touched) == 0 {
		m.flushPrune(&pc)
		return nil
	}

	// Selection bar: with every term applied, the histogram holds the
	// FINAL intersection counts, so the k-th largest is an exact floor —
	// a candidate strictly below it is outranked by ≥ k candidates at or
	// above it (strict count ⇒ strict score under J*; MinScore filters
	// dominators and dominated alike) and is skipped with one integer
	// compare instead of a float score, filter and heap round-trip.
	finalBar := int32(0)
	if useBar {
		finalBar = kthInter(hist, k)
	}

	// Score, filter and select — identical arithmetic and total order to
	// the exhaustive spec, over the surviving candidates.
	sel := a.cands[:0]
	vanilla := m.opts.Metric == VanillaJaccard
	scoredLen := float64(a.scoredLen)
	for _, d := range a.touched {
		e := &a.acc[d]
		inter := e.inter
		if inter < finalBar {
			pc.docsDropped++
			continue
		}
		var score float64
		if vanilla {
			score = float64(inter) / (scoredLen + float64(m.docLen(d)) - float64(inter))
		} else {
			score = float64(inter) / scoredLen
		}
		if score < m.opts.MinScore {
			continue
		}
		c := cand{score: score, pri: e.pri, doc: d, raw: a.rawEligible && m.hasRaw[d]}
		if k <= 0 || len(sel) < k {
			sel = append(sel, c)
			if k > 0 && len(sel) == k {
				heapifyWorst(sel, m)
			}
			continue
		}
		if m.better(c, sel[0]) {
			sel[0] = c
			siftWorst(sel, 0, len(sel), m)
		}
	}
	a.cands = sel
	sortCands(sel, m)
	m.flushPrune(&pc)
	return sel
}

// containsID reports whether sorted holds id (binary search; anchor
// sets are SortDedupIDs output).
func containsID(sorted []uint32, id uint32) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sorted[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] == id
}

// flushPrune lands one query's batched prune counters in the matcher's
// lifetime atomics; zero counters cost nothing.
func (m *Matcher) flushPrune(pc *pruneLocal) {
	if pc.termsSkipped != 0 {
		m.pruneTermsSkipped.Add(pc.termsSkipped)
	}
	if pc.postingsAvoided != 0 {
		m.prunePostingsAvoided.Add(pc.postingsAvoided)
	}
	if pc.docsDropped != 0 {
		m.pruneDocsDropped.Add(pc.docsDropped)
	}
	if pc.compactions != 0 {
		m.pruneCompactions.Add(pc.compactions)
	}
	if pc.probeTerms != 0 {
		m.adaptiveProbeTerms.Add(pc.probeTerms)
	}
	if pc.gatherExit {
		m.pruneGatherExits.Add(1)
	}
}
