// Package core implements FabricCRDT's contribution: the commit-time merge
// engine that replaces MVCC validation for CRDT-flagged transactions
// (paper §5, Algorithms 1 and 2).
//
// Within a block, every CRDT-flagged write to the same key is merged into
// one CRDT state; the converged value then replaces the value in every one
// of those transactions' write sets, so all of them commit and no update is
// lost. Non-CRDT transactions are untouched and go through stock MVCC
// validation.
//
// A key's state is a JSON CRDT document (the paper's datatype) or a classic
// CRDT from internal/crdt (the paper's future work), fixed by the key's
// first write and kept for good. Both kinds sit behind one keyState
// interface (state.go) that seeds, merges, converges and persists, so the
// merge loop has one path for each.
//
// Cross-block continuity: each key's full state (with operation metadata)
// is persisted in the state database's metadata space and seeds the merge
// of later blocks, so deltas merge against the key's complete history
// (DESIGN.md §3 records this clarification of the paper's delta
// semantics). The state persists as a snapshot plus one delta record per
// later block — the raw writes the block merged into the key — and a new
// snapshot only once the deltas add up to the last one's size (persist.go),
// so a block's persist cost is O(its deltas), not O(the document),
// amortized. The engine keeps
// the states of the last merged block resident and resumes one instead of
// loading it whenever the database still holds exactly the record it last
// persisted, so a key every block touches is loaded once per process
// (DESIGN.md §5).
//
// The merge is organized as per-key groups: all CRDT writes to one key, in
// block order, form one group, and distinct groups share no state.
// MergeBlock merges the groups one after another in first-touch order;
// the peer then runs MVCC over the remaining transactions (DESIGN.md §5).
package core

import (
	"errors"
	"fmt"

	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/rwset"
	"fabriccrdt/internal/statedb"
)

// MergeReplica is what the benchmark module passes to jsoncrdt.NewDoc,
// which ignores it; it stays only until that call drops the argument
// (ROADMAP 0A(i)).
const MergeReplica = "fabriccrdt"

// Options is the engine's configuration. It has no fields: NewEngine keeps
// the argument only while the benchmark module still passes it
// (bench/layers.go; ROADMAP 0A(i)).
type Options struct{}

// Engine merges the CRDT transactions of blocks for one peer, one block at
// a time: its callers serialize MergeBlock (the channel's commit mutex).
type Engine struct {
	db *statedb.DB

	// resident holds, by snapshot key, each state the last successful
	// merge persisted, so the next block resumes it instead of decoding it
	// (state.go, resume).
	resident map[string]residentState
}

// residentState is a merged key state kept between blocks, with its log
// position and the one record it last persisted.
type residentState struct {
	state  keyState
	log    keyLog
	recKey string
	rec    []byte
}

// NewEngine returns a merge engine reading and persisting CRDT state
// through db.
func NewEngine(db *statedb.DB, _ Options) *Engine {
	return &Engine{db: db}
}

// Result summarizes one block's merge.
type Result struct {
	// MergedKeys lists the distinct ledger keys whose states were
	// extended, in first-touch order.
	MergedKeys []string
	// States holds, by metadata key, the one record each merged key's
	// persisted log gains this block, to be written to the metadata space
	// by the commit batch: a snapshot of the post-merge state under
	// MetaPrefix or TypedMetaPrefix + ledger key, or a delta record of the
	// block's writes under a DeltaPrefix slot (persist.go).
	States map[string][]byte
}

// mergeOp is one CRDT-flagged write of a key-group: the write plus its
// transaction's position in the block (for validation codes).
type mergeOp struct {
	txIdx int
	w     *rwset.Write
	// ok records whether the write merged cleanly (set by runGroup).
	ok bool
}

// keyGroup is every CRDT write to one key, in block order, merged into the
// key's one state.
type keyGroup struct {
	key string
	ops []*mergeOp

	// state is seeded by the group's first write that seeds cleanly, log
	// with it.
	state keyState
	log   keyLog
	// entries encodes the writes passed to state.merge, when this block
	// persists them as a delta record.
	entries []byte
}

// MergeBlock implements Algorithm 1 (ValidateMergeBlock). codes[i] must be
// CodeNotValidated for transactions still in play and a failure code for
// transactions that already failed endorsement validation; the engine sets
// codes[i] = CodeCRDTMerged for every transaction it commits via the merge
// path (the paper's SkipMVCCValidation flag) and CodeInvalidCRDT for CRDT
// transactions carrying unparseable values. Write-set values of merged
// transactions are rewritten in place to the converged values.
//
// A transaction is merged only if every one of its CRDT writes merges
// cleanly; a bad delta fails the transaction (CodeInvalidCRDT) while its
// other writes still extend their keys' states, exactly as its earlier
// writes already did — one transaction's failure never rolls back a key
// group.
//
// The caller runs stock MVCC validation afterwards for the remaining
// transactions (Algorithm 1 line 15) and commits both groups in one batch.
func (e *Engine) MergeBlock(block *ledger.Block, codes []ledger.ValidationCode) (Result, error) {
	candidates := crdtCandidates(block, codes)
	groups, ops := classify(block, candidates)

	// Merge pass: each group replays its key's writes in block order.
	// Groups run in first-touch order, so a hard error is that of the
	// earliest key in block order whose persisted state is corrupt.
	for _, g := range groups {
		if err := e.runGroup(g); err != nil {
			return Result{}, err
		}
	}

	// Validation codes: a candidate is merged iff all its writes merged.
	res := Result{States: make(map[string][]byte)}
	txFailed := make(map[int]bool)
	for _, op := range ops {
		if !op.ok {
			txFailed[op.txIdx] = true
		}
	}
	for _, txIdx := range candidates {
		if txFailed[txIdx] {
			codes[txIdx] = ledger.CodeInvalidCRDT
			continue
		}
		codes[txIdx] = ledger.CodeCRDTMerged
	}

	// MergedKeys in first-successful-touch block order.
	seen := make(map[string]struct{}, len(groups))
	for _, op := range ops {
		if !op.ok {
			continue
		}
		if _, ok := seen[op.w.Key]; ok {
			continue
		}
		seen[op.w.Key] = struct{}{}
		res.MergedKeys = append(res.MergedKeys, op.w.Key)
	}

	// Finish pass (Algorithm 1 lines 16–22): rewrite every merged
	// transaction's CRDT write values with the converged values, metadata
	// stripped, and serialize the states to persist.
	resident := make(map[string]residentState, len(groups))
	for _, g := range groups {
		metaKey, rec, err := e.finishGroup(g, codes)
		if err != nil {
			return Result{}, err
		}
		if metaKey != "" {
			res.States[metaKey] = rec
			resident[g.log.snapKey] = residentState{state: g.state, log: g.log, recKey: metaKey, rec: rec}
		}
	}
	// Exactly this block's persisted states stay resident: a key every
	// block touches stays decoded, any other leaves after one block.
	e.resident = resident
	return res, nil
}

// crdtCandidates lists (ascending) the transactions eligible for the merge
// path: still undecided and carrying at least one CRDT-flagged write.
func crdtCandidates(block *ledger.Block, codes []ledger.ValidationCode) []int {
	var candidates []int
	for i, tx := range block.Transactions {
		if codes[i] != ledger.CodeNotValidated {
			continue // failed endorsement validation; never merged
		}
		if !tx.RWSet.HasCRDTWrites() {
			continue // non-CRDT transaction: left for MVCC validation
		}
		candidates = append(candidates, i)
	}
	return candidates
}

// classify walks the candidate transactions in block order and groups
// their CRDT writes by key, returning the groups in first-touch order and
// every write in block order: cheap bookkeeping only, no parsing or
// merging.
func classify(block *ledger.Block, candidates []int) ([]*keyGroup, []*mergeOp) {
	byKey := make(map[string]*keyGroup)
	var groups []*keyGroup
	var ops []*mergeOp
	for _, i := range candidates {
		tx := block.Transactions[i]
		for wi := range tx.RWSet.Writes {
			w := &tx.RWSet.Writes[wi]
			if !w.IsCRDT {
				continue
			}
			g, ok := byKey[w.Key]
			if !ok {
				g = &keyGroup{key: w.Key}
				byKey[w.Key] = g
				groups = append(groups, g)
			}
			op := &mergeOp{txIdx: i, w: w}
			g.ops = append(g.ops, op)
			ops = append(ops, op)
		}
	}
	return groups, ops
}

// runGroup merges one key's writes in block order. Bad deltas mark the op
// failed and the group continues; a hard failure (corrupt persisted state)
// is returned.
func (e *Engine) runGroup(g *keyGroup) error {
	for _, op := range g.ops {
		err := e.mergeWrite(g, op.w)
		switch {
		case err == nil:
			op.ok = true
		case errors.Is(err, errInvalidDelta):
			// Bad delta: the op (and so its transaction) fails, later
			// writes to this key still merge.
		default:
			return err // corrupt persisted state: peer-side, hard failure
		}
	}
	return nil
}

// mergeWrite joins one write into its group's state, seeding the state
// first if no earlier write did.
func (e *Engine) mergeWrite(g *keyGroup, w *rwset.Write) error {
	if g.state == nil {
		st, log, err := e.seed(w)
		if err != nil {
			return err
		}
		g.state, g.log = st, log
	}
	if !g.log.snapshotDue() {
		g.entries = appendEntry(g.entries, w)
	}
	return g.state.merge(w)
}

// finishGroup serializes one group's converged value once, writes it into
// every merged transaction's write set and returns the record to persist,
// if any.
func (e *Engine) finishGroup(g *keyGroup, codes []ledger.ValidationCode) (metaKey string, rec []byte, err error) {
	if g.state == nil {
		return "", nil, nil // no write seeded the key, so none merged
	}
	var converged []byte
	for _, op := range g.ops {
		if codes[op.txIdx] != ledger.CodeCRDTMerged {
			continue
		}
		if converged == nil {
			if converged, err = g.state.value(); err != nil {
				return "", nil, fmt.Errorf("core: serializing converged value for %q: %w", g.key, err)
			}
		}
		op.w.Value = converged
	}
	metaKey, rec, err = g.log.appendRecord(g.key, g.state, g.entries)
	if err != nil {
		return "", nil, fmt.Errorf("core: persisting state for %q: %w", g.key, err)
	}
	return metaKey, rec, nil
}

// errInvalidDelta marks merge failures attributable to the transaction's
// data (unparseable delta, kind or datatype conflicts); the transaction
// fails with CodeInvalidCRDT while the block commit proceeds.
var errInvalidDelta = errors.New("core: invalid CRDT delta")

// StageDocStates writes the merged keys' state records into a commit
// batch's metadata space.
func StageDocStates(batch *statedb.UpdateBatch, res Result) {
	//lint:sorted map-to-map staging; UpdateBatch is keyed, insertion order invisible
	for metaKey, state := range res.States {
		batch.PutMeta(metaKey, state)
	}
}
