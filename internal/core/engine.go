// Package core implements FabricCRDT's contribution: the commit-time merge
// engine that replaces MVCC validation for CRDT-flagged transactions
// (paper §5, Algorithms 1 and 2).
//
// Within a block, every CRDT-flagged write to the same key is merged into
// one JSON CRDT document; the converged document then replaces the value in
// every one of those transactions' write sets, so all of them commit and no
// update is lost. Non-CRDT transactions are untouched and go through stock
// MVCC validation.
//
// Cross-block continuity: each ledger key's full JSON CRDT document (with
// operation metadata) is persisted in the state database's metadata space
// and reloaded to seed the merge of later blocks, so deltas merge against
// the key's complete history (DESIGN.md §3 records this clarification of
// the paper's delta semantics).
//
// The merge is organized as independent per-key groups: all CRDT writes to
// one key, in block order, form one group, and distinct groups share no
// state. MergeCandidates merges groups concurrently over the worker count
// its caller passes; because the per-key write order never changes, results
// are byte-identical at every worker count (DESIGN.md §5).
package core

import (
	"encoding/json"
	"errors"
	"fmt"

	"fabriccrdt/internal/crdt"
	"fabriccrdt/internal/jsoncrdt"
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/parallel"
	"fabriccrdt/internal/rwset"
	"fabriccrdt/internal/statedb"
)

// MetaPrefix namespaces persisted CRDT documents in the state database's
// metadata space.
const MetaPrefix = "crdt/"

// MergeReplica is the replica identifier every peer's merge engine stamps
// operations with. It must be identical on all peers: peers observe blocks
// in the same order, so equal inputs + equal replica = equal operation IDs
// = byte-identical converged documents (paper §5.2: "every peer observes
// the transactions in a block in the same order; we exploit this property").
const MergeReplica = "fabriccrdt"

// Options tune the engine.
type Options struct {
	// SerializeOncePerKey replaces Algorithm 1's literal second pass —
	// which re-serializes the converged document into every transaction's
	// write set (lines 16–22, O(txs × doc size) per block) — with a
	// serialize-once-per-key cache. Off by default for paper fidelity;
	// the ablation benchmark (DESIGN.md A1) quantifies the difference.
	SerializeOncePerKey bool
	// FreshDocPerBlock is the paper-literal Algorithm 1 behaviour: every
	// block starts from InitEmptyCRDT, so only the block's own deltas are
	// merged and nothing is persisted across blocks. The committed world
	// state then holds only the LAST block's converged readings — updates
	// from earlier blocks survive solely in the blockchain history. Off
	// by default: the library seeds each block's documents from the
	// persisted state so "no update loss" holds across blocks too
	// (DESIGN.md §3). The paper's evaluation is reproduced with this ON,
	// which is what yields Figure 3's block-size-dependent merge cost.
	FreshDocPerBlock bool
}

// Engine merges the CRDT transactions of blocks for one peer.
type Engine struct {
	db       *statedb.DB
	opts     Options
	registry *crdt.Registry
}

// NewEngine returns a merge engine reading and persisting CRDT document
// state through db.
func NewEngine(db *statedb.DB, opts Options) *Engine {
	return &Engine{db: db, opts: opts, registry: crdt.NewRegistry()}
}

// Registry exposes the datatype registry so deployments can register
// custom CRDTs before committing blocks that use them.
func (e *Engine) Registry() *crdt.Registry { return e.registry }

// Result summarizes one block's merge.
type Result struct {
	// MergedTxCount is the number of transactions committed via the CRDT
	// path.
	MergedTxCount int
	// MergedKeys lists the distinct ledger keys whose documents were
	// extended, in first-touch order.
	MergedKeys []string
	// DocStates holds the serialized post-merge JSON CRDT document per
	// key, to be written to the metadata space by the commit batch.
	DocStates map[string][]byte
	// TypedStates holds the serialized post-merge classic-CRDT state per
	// key (the future-work datatypes).
	TypedStates map[string][]byte
}

// mergeOp is one CRDT-flagged write scheduled into a key-group: the write
// plus its position in the block (for validation codes and deterministic
// ordering).
type mergeOp struct {
	txIdx int
	w     *rwset.Write
	// ok records whether the write merged cleanly (set by runGroup).
	ok bool
}

// keyGroup is the unit of merge parallelism: every CRDT write to one key,
// in block order. Groups share no mutable state, so they run concurrently
// without synchronization; per-op outputs land in disjoint slots.
type keyGroup struct {
	key string
	ops []*mergeOp

	// Outputs of the merge pass.
	doc   *jsoncrdt.Doc
	typed *typedState
	err   error // hard failure (corrupt persisted state), not a bad delta

	// Outputs of the finish pass (serialization).
	docState   []byte
	typedState []byte
	finishErr  error
}

// MergeBlock implements Algorithm 1 (ValidateMergeBlock). codes[i] must be
// CodeNotValidated for transactions still in play and a failure code for
// transactions that already failed endorsement validation; the engine sets
// codes[i] = CodeCRDTMerged for every transaction it commits via the merge
// path (the paper's SkipMVCCValidation flag) and CodeInvalidCRDT for CRDT
// transactions carrying unparseable values. Write-set values of merged
// transactions are rewritten in place to the converged documents.
//
// A transaction is merged only if every one of its CRDT writes merges
// cleanly; a bad delta fails the transaction (CodeInvalidCRDT) while its
// other writes still extend their keys' documents, exactly as its earlier
// writes already did — one transaction's failure never rolls back a key
// group, in any interleaving.
//
// The caller runs stock MVCC validation afterwards for the remaining
// transactions (Algorithm 1 line 15) and commits both groups in one batch.
//
// MergeBlock merges the key-groups serially: it is the reference the
// parallel MergeCandidates must match byte for byte.
func (e *Engine) MergeBlock(block *ledger.Block, codes []ledger.ValidationCode) (Result, error) {
	return e.MergeCandidates(block, codes, CRDTCandidates(block, codes), 1)
}

// CRDTCandidates lists (ascending) the transactions eligible for the merge
// path: still undecided and carrying at least one CRDT-flagged write.
func CRDTCandidates(block *ledger.Block, codes []ledger.ValidationCode) []int {
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

// MergeCandidates is MergeBlock over an explicit candidate set (ascending
// transaction indices, as from CRDTCandidates or a txgraph plan). The
// engine reads and writes codes ONLY at candidate indices, so the parallel
// finalize stage can run the merge concurrently with MVCC validation of the
// remaining transactions over the same codes slice without a data race.
// workers bounds how many independent key-groups merge concurrently (<= 1 =
// serial); per-key write order is block order regardless, so results are
// byte-identical at every count.
func (e *Engine) MergeCandidates(block *ledger.Block, codes []ledger.ValidationCode, candidates []int, workers int) (Result, error) {
	groups, flat := classify(block, candidates)

	// Merge pass: each group replays its key's writes in block order.
	// Groups are independent, so the schedule cannot affect results.
	parallel.ForEach(workers, groups, e.runGroup)
	if err := firstMergeError(flat); err != nil {
		return Result{}, err
	}

	// Validation codes: a candidate is merged iff all its writes merged.
	res := Result{
		DocStates:   make(map[string][]byte),
		TypedStates: make(map[string][]byte),
	}
	txFailed := make(map[int]bool)
	for _, item := range flat {
		if !item.op.ok {
			txFailed[item.op.txIdx] = true
		}
	}
	for _, txIdx := range candidates {
		if txFailed[txIdx] {
			codes[txIdx] = ledger.CodeInvalidCRDT
			continue
		}
		codes[txIdx] = ledger.CodeCRDTMerged
		res.MergedTxCount++
	}

	// MergedKeys in first-successful-touch block order.
	seen := make(map[string]struct{}, len(groups))
	for _, item := range flat {
		if !item.op.ok {
			continue
		}
		if _, ok := seen[item.g.key]; ok {
			continue
		}
		seen[item.g.key] = struct{}{}
		res.MergedKeys = append(res.MergedKeys, item.g.key)
	}

	// Finish pass (Algorithm 1 lines 16–22): rewrite every merged
	// transaction's CRDT write values with the converged documents,
	// metadata stripped, and serialize the states to persist. The paper's
	// literal algorithm converts the document anew for every transaction;
	// SerializeOncePerKey caches it.
	parallel.ForEach(workers, groups, func(g *keyGroup) { e.finishGroup(g, codes) })
	for _, g := range groups {
		if g.finishErr != nil {
			return Result{}, g.finishErr
		}
	}

	for _, g := range groups {
		if g.typedState != nil {
			// Always persisted, even in fresh-per-block mode — a
			// state-based join is cheap and counters are meaningless
			// without continuity.
			res.TypedStates[g.key] = g.typedState
		}
		if g.docState != nil {
			res.DocStates[g.key] = g.docState
		}
	}
	return res, nil
}

// flatOp is one scheduled write in block order, used to derive
// deterministic, worker-count-independent orderings.
type flatOp struct {
	g  *keyGroup
	op *mergeOp
}

// classify walks the candidate transactions in block order and groups
// their CRDT writes by key. It is the serial stage of the pipeline: cheap
// bookkeeping only, no parsing or merging.
func classify(block *ledger.Block, candidates []int) ([]*keyGroup, []flatOp) {
	byKey := make(map[string]*keyGroup)
	var groups []*keyGroup
	var flat []flatOp
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
			flat = append(flat, flatOp{g: g, op: op})
		}
	}
	return groups, flat
}

// runGroup merges one key's writes in block order. Bad deltas mark the op
// failed and the group continues; hard failures (corrupt persisted state)
// stop the group.
func (e *Engine) runGroup(g *keyGroup) {
	docs := make(map[string]*jsoncrdt.Doc, 1)
	typed := make(map[string]*typedState, 1)
	for _, op := range g.ops {
		err := e.mergeWrite(docs, typed, op.w)
		switch {
		case err == nil:
			op.ok = true
		case errors.Is(err, errInvalidDelta):
			// Bad delta: the op (and so its transaction) fails, later
			// writes to this key still merge.
		default:
			g.err = err // corrupt persisted state: peer-side, hard failure
			return
		}
	}
	g.doc = docs[g.key]
	g.typed = typed[g.key]
}

// firstMergeError returns the hard error of the earliest (block-order)
// write whose group failed, so the surfaced error does not depend on the
// worker schedule.
func firstMergeError(flat []flatOp) error {
	for _, item := range flat {
		if item.g.err != nil {
			return item.g.err
		}
	}
	return nil
}

// finishGroup serializes one group's converged value into every merged
// transaction's write set and marshals the post-merge states to persist.
func (e *Engine) finishGroup(g *keyGroup, codes []ledger.ValidationCode) {
	var cached []byte
	for _, op := range g.ops {
		if codes[op.txIdx] != ledger.CodeCRDTMerged {
			continue
		}
		converged := cached
		if converged == nil {
			var err error
			switch {
			case g.doc != nil:
				converged, err = json.Marshal(g.doc.ToJSON())
			case g.typed != nil:
				converged, err = cleanTypedValue(g.typed)
			default:
				err = fmt.Errorf("core: merged write for key %q has no document", g.key)
			}
			if err != nil {
				g.finishErr = fmt.Errorf("core: serializing converged value for %q: %w", g.key, err)
				return
			}
			if e.opts.SerializeOncePerKey {
				cached = converged
			}
		}
		op.w.Value = converged
	}
	if g.typed != nil {
		state, err := crdt.Marshal(g.typed.acc)
		if err != nil {
			g.finishErr = fmt.Errorf("core: persisting %s state for %q: %w", g.typed.typeName, g.key, err)
			return
		}
		g.typedState = state
	}
	// Persist the post-merge JSON CRDT document for cross-block seeding
	// (skipped in the paper-literal fresh-per-block mode).
	if g.doc != nil && !e.opts.FreshDocPerBlock {
		state, err := g.doc.MarshalBinary()
		if err != nil {
			g.finishErr = fmt.Errorf("core: persisting document for %q: %w", g.key, err)
			return
		}
		g.docState = state
	}
}

// errInvalidDelta marks merge failures attributable to the transaction's
// data (unparseable delta, type conflicts); the transaction fails with
// CodeInvalidCRDT while the block commit proceeds.
var errInvalidDelta = errors.New("core: invalid CRDT delta")

// mergeWrite routes one CRDT-flagged write to the JSON CRDT or the typed
// classic-CRDT merge path. The maps are group-local: they only ever hold
// the group's own key, so route conflicts (doc vs typed) are detected
// exactly as they were when one block-wide map existed.
func (e *Engine) mergeWrite(docs map[string]*jsoncrdt.Doc, typed map[string]*typedState, w *rwset.Write) error {
	if w.CRDTType == "" {
		if _, isTyped := typed[w.Key]; isTyped {
			return fmt.Errorf("%w: key %q already merged as a typed CRDT in this block", errInvalidDelta, w.Key)
		}
		doc, err := e.docForKey(docs, w.Key)
		if err != nil {
			return err // corrupt persisted state: peer-side, hard failure
		}
		var delta any
		if err := json.Unmarshal(w.Value, &delta); err != nil {
			return fmt.Errorf("%w: %v", errInvalidDelta, err)
		}
		if err := doc.MergeJSON(delta); err != nil {
			return fmt.Errorf("%w: %v", errInvalidDelta, err)
		}
		return nil
	}
	if _, isDoc := docs[w.Key]; isDoc {
		return fmt.Errorf("%w: key %q already merged as a JSON CRDT in this block", errInvalidDelta, w.Key)
	}
	st, err := e.typedForKey(typed, w.Key, w.CRDTType)
	switch {
	case errors.Is(err, crdt.ErrTypeMismatch), errors.Is(err, crdt.ErrUnknownType):
		return fmt.Errorf("%w: %v", errInvalidDelta, err)
	case err != nil:
		return err // corrupt persisted state: hard failure
	}
	if err := e.mergeTypedDelta(st, w.Value); err != nil {
		return fmt.Errorf("%w: %v", errInvalidDelta, err)
	}
	return nil
}

// docForKey returns the block-local document for key, seeding it from the
// persisted state of earlier blocks (InitEmptyCRDT in Algorithm 1, extended
// with cross-block continuity).
func (e *Engine) docForKey(docs map[string]*jsoncrdt.Doc, key string) (*jsoncrdt.Doc, error) {
	if doc, ok := docs[key]; ok {
		return doc, nil
	}
	doc := jsoncrdt.NewDoc(MergeReplica)
	if !e.opts.FreshDocPerBlock {
		if persisted := e.db.GetMeta(MetaPrefix + key); persisted != nil {
			if err := doc.UnmarshalBinary(persisted); err != nil {
				return nil, fmt.Errorf("core: loading persisted document for %q: %w", key, err)
			}
		}
	}
	docs[key] = doc
	return doc, nil
}

// StageDocStates writes the merged document and typed-CRDT states into a
// commit batch's metadata space.
func StageDocStates(batch *statedb.UpdateBatch, res Result) {
	//lint:sorted map-to-map staging; UpdateBatch is keyed, insertion order invisible
	for key, state := range res.DocStates {
		batch.PutMeta(MetaPrefix+key, state)
	}
	//lint:sorted map-to-map staging; UpdateBatch is keyed, insertion order invisible
	for key, state := range res.TypedStates {
		batch.PutMeta(TypedMetaPrefix+key, state)
	}
}

// LoadDoc returns the persisted CRDT document for a ledger key, or nil when
// the key has never been CRDT-written. Read-side helpers (clients, examples)
// use it to inspect merge metadata.
func LoadDoc(db *statedb.DB, key string) (*jsoncrdt.Doc, error) {
	persisted := db.GetMeta(MetaPrefix + key)
	if persisted == nil {
		return nil, nil
	}
	doc := jsoncrdt.NewDoc(MergeReplica)
	if err := doc.UnmarshalBinary(persisted); err != nil {
		return nil, fmt.Errorf("core: loading persisted document for %q: %w", key, err)
	}
	return doc, nil
}
