// Package txgraph computes a per-block transaction dependency schedule: the
// conflict graph of a block's transactions and a topological wavefront
// schedule over it. No production package imports it: the peer's finalize
// merges and then runs MVCC in block order (DESIGN.md §9). The package is
// kept only because the benchmark still times txgraph.Build as a layer
// row, and goes when the benchmark drops that row (ROADMAP 0A(g)).
//
// Transactions touching disjoint key sets cannot influence each other's
// MVCC outcome; transactions sharing a key with at least one writer form an
// ordered chain that must be decided in block-delivery order. Every wave is
// a set of mutually independent transactions, and replaying the waves in
// order — applying each wave's pending writes before the next starts —
// reproduces the serial validation trajectory.
//
// CRDT-flagged transactions never take the MVCC path (the merge engine
// decides them; paper §5.1), so they are excluded from the MVCC wavefronts
// and surfaced separately as the merge-path candidates. They still
// participate in the conflict statistics: CRDT writes to one document are a
// dependency chain too.
package txgraph

import (
	"fabriccrdt/internal/ledger"
)

// Plan is one block's dependency schedule.
type Plan struct {
	// MVCCWaves is the wavefront schedule of the plain (MVCC-validated)
	// transactions: each wave lists transaction indices, ascending; every
	// member's dependencies are in strictly earlier waves, and no two
	// members of one wave conflict. Validating a wave concurrently and
	// then applying its valid members' writes in index order yields the
	// exact serial outcome.
	MVCCWaves [][]int
	// CRDTTxs lists (ascending) the transactions routed to the merge
	// engine instead: undecided transactions carrying CRDT writes.
	CRDTTxs []int
	// Stats summarizes the unified conflict graph (plain and CRDT
	// transactions together).
	Stats Stats
}

// Stats describes one block's conflict structure, feeding the scheduler
// counters (group count, conflict rate) the committer reports.
type Stats struct {
	// Scheduled is the number of transactions in the graph — every
	// transaction still undecided when the schedule was built.
	Scheduled int
	// CRDTTxs of those went to the merge path.
	CRDTTxs int
	// Edges is the number of distinct dependency edges.
	Edges int
	// Groups is the number of connected components: independent groups
	// that could in principle commit fully in parallel.
	Groups int
	// Waves is the length of the MVCC wavefront schedule.
	Waves int
	// LongestChain is the longest dependency chain in the unified graph
	// (1 = no conflicts at all); it bounds the schedule's critical path.
	LongestChain int
	// Conflicted is the number of scheduled transactions with at least
	// one dependency edge (in either direction).
	Conflicted int
}

// ConflictRate is the fraction of scheduled transactions that conflict
// with at least one other transaction in the block.
func (s Stats) ConflictRate() float64 {
	if s.Scheduled == 0 {
		return 0
	}
	return float64(s.Conflicted) / float64(s.Scheduled)
}

// Build constructs the dependency schedule for one block's still-undecided
// transactions (codes[i] == CodeNotValidated; a nil codes means all are
// undecided). crdtEnabled mirrors the committer's merge switch: with it
// off, CRDT-flagged writes are ordinary writes and every transaction takes
// the MVCC path.
//
// Two transactions conflict when they share a key and at least one of them
// writes it: write-write (a later reader must see the last writer's
// version), write-read and read-write (validation outcome of one depends on
// whether the other's writes are applied yet). Read-read sharing is not a
// conflict. Edges always point from the earlier transaction to the later
// one, so the graph is acyclic by construction and block-delivery order is
// preserved within every chain.
func Build(txs []*ledger.Transaction, codes []ledger.ValidationCode, crdtEnabled bool) *Plan {
	plan := &Plan{}
	var eligible []int
	isCRDT := make([]bool, len(txs))
	for i, tx := range txs {
		if codes != nil && codes[i] != ledger.CodeNotValidated {
			continue
		}
		eligible = append(eligible, i)
		if crdtEnabled && tx.RWSet.HasCRDTWrites() {
			isCRDT[i] = true
			plan.CRDTTxs = append(plan.CRDTTxs, i)
		}
	}

	// Unified graph over every eligible transaction: statistics only.
	uf := newUnionFind(len(txs))
	level := make(map[int]int)
	conflicted := make(map[int]bool)
	longest := 0
	edges := 0
	forEachDep(txs, eligible, func(j int, deps map[int]struct{}) {
		//lint:sorted commutative stats only: counts, running max, union-find component count
		for i := range deps {
			edges++
			conflicted[i], conflicted[j] = true, true
			uf.union(i, j)
			if l := level[i] + 1; l > level[j] {
				level[j] = l
			}
		}
		if level[j]+1 > longest {
			longest = level[j] + 1
		}
	})
	groups := make(map[int]struct{})
	for _, i := range eligible {
		groups[uf.find(i)] = struct{}{}
	}
	plan.Stats = Stats{
		Scheduled:    len(eligible),
		CRDTTxs:      len(plan.CRDTTxs),
		Edges:        edges,
		Groups:       len(groups),
		LongestChain: longest,
		Conflicted:   len(conflicted),
	}

	// Execution wavefronts over the plain subgraph only: the merge engine
	// schedules the CRDT chains itself (per-key groups in block order), and
	// in the serial pipeline the merge decides every CRDT candidate before
	// MVCC validation runs — the two families share no MVCC-visible state,
	// so their subgraphs schedule independently.
	var plain []int
	for _, i := range eligible {
		if !isCRDT[i] {
			plain = append(plain, i)
		}
	}
	var waves [][]int
	waveOf := make(map[int]int)
	forEachDep(txs, plain, func(j int, deps map[int]struct{}) {
		wave := 0
		//lint:sorted running max over dep waves; iteration order cannot change it
		for i := range deps {
			if w := waveOf[i] + 1; w > wave {
				wave = w
			}
		}
		waveOf[j] = wave
		for len(waves) <= wave {
			waves = append(waves, nil)
		}
		// Iteration is ascending, so waves stay index-sorted.
		waves[wave] = append(waves[wave], j)
	})
	plan.MVCCWaves = waves
	plan.Stats.Waves = len(waves)
	return plan
}

// forEachDep walks the given transactions in block order and hands each one
// the set of earlier transactions it conflicts with. The sweep keeps, per
// key, the last writer and every reader since that write: a write depends
// on the previous writer and all intervening readers; a read depends on the
// last writer. This visits each true edge exactly once without the O(n²)
// pairwise scan.
func forEachDep(txs []*ledger.Transaction, order []int, fn func(j int, deps map[int]struct{})) {
	lastWriter := make(map[string]int)
	readers := make(map[string][]int)
	deps := make(map[int]struct{})
	for _, j := range order {
		clear(deps)
		rw := txs[j].RWSet
		for _, r := range rw.Reads {
			if w, ok := lastWriter[r.Key]; ok {
				deps[w] = struct{}{}
			}
		}
		for _, w := range rw.Writes {
			if prev, ok := lastWriter[w.Key]; ok {
				deps[prev] = struct{}{}
			}
			for _, r := range readers[w.Key] {
				if r != j {
					deps[r] = struct{}{}
				}
			}
		}
		delete(deps, j) // a transaction never depends on itself
		fn(j, deps)
		for _, r := range rw.Reads {
			readers[r.Key] = append(readers[r.Key], j)
		}
		for _, w := range rw.Writes {
			lastWriter[w.Key] = j
			readers[w.Key] = nil
		}
	}
}

// unionFind is a plain disjoint-set forest over transaction indices.
type unionFind struct {
	parent []int
}

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(i int) int {
	for u.parent[i] != i {
		u.parent[i] = u.parent[u.parent[i]]
		i = u.parent[i]
	}
	return i
}

func (u *unionFind) union(i, j int) {
	ri, rj := u.find(i), u.find(j)
	if ri != rj {
		u.parent[ri] = rj
	}
}
