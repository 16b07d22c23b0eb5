// Package mvcc implements Fabric's multi-version concurrency control
// validation (paper §3): a committer sequentially compares each
// transaction's read-set versions against the world state — as already
// modified by preceding valid transactions in the same block — and
// invalidates any transaction that read a stale version.
package mvcc

import (
	"fabriccrdt/internal/ledger"
	"fabriccrdt/internal/rwset"
	"fabriccrdt/internal/statedb"
)

// Validator validates blocks against a world state.
type Validator struct {
	db *statedb.DB
}

// New returns a validator reading committed versions from db.
func New(db *statedb.DB) *Validator {
	return &Validator{db: db}
}

// Result is the outcome of validating one block.
type Result struct {
	// Codes holds one validation code per transaction. Transactions whose
	// code was already decided (non-zero), e.g. FabricCRDT-merged or
	// endorsement-failed ones, are left untouched and their writes do not
	// participate in intra-block version accounting.
	Codes []ledger.ValidationCode
}

// ValidateBlock runs MVCC validation over the block's transactions.
// codes[i] != CodeNotValidated marks transaction i as pre-decided: it is
// skipped (its code kept). Valid transactions' writes immediately shadow the
// committed state for subsequent transactions in the block, which is what
// fails the paper's §3 example transactions T2 and T3.
//
// The block number is needed to stamp intra-block versions: a write by
// transaction t of block b commits at version (b, t).
func (v *Validator) ValidateBlock(blockNum uint64, txs []*ledger.Transaction, codes []ledger.ValidationCode) Result {
	if codes == nil {
		codes = make([]ledger.ValidationCode, len(txs))
	}
	// pendingWrites maps keys written by preceding valid transactions of
	// this block to their new versions.
	pendingWrites := make(map[string]rwset.Version)
	pendingDeletes := make(map[string]struct{})
	for i, tx := range txs {
		if codes[i] != ledger.CodeNotValidated {
			continue
		}
		if v.conflicts(tx.RWSet.Reads, pendingWrites, pendingDeletes) {
			codes[i] = ledger.CodeMVCCConflict
			continue
		}
		codes[i] = ledger.CodeValid
		newVersion := rwset.Version{BlockNum: blockNum, TxNum: uint64(i)}
		for _, w := range tx.RWSet.Writes {
			if w.IsCRDT {
				// CRDT writes are committed by the merge engine and do
				// not participate in MVCC version accounting.
				continue
			}
			if w.IsDelete {
				pendingDeletes[w.Key] = struct{}{}
				delete(pendingWrites, w.Key)
				continue
			}
			pendingWrites[w.Key] = newVersion
			delete(pendingDeletes, w.Key)
		}
	}
	return Result{Codes: codes}
}

// conflicts reports whether any read's version is stale with respect to the
// committed state plus the block's pending writes.
func (v *Validator) conflicts(reads []rwset.Read, pendingWrites map[string]rwset.Version, pendingDeletes map[string]struct{}) bool {
	for _, r := range reads {
		if _, deleted := pendingDeletes[r.Key]; deleted {
			// The key was deleted earlier in this block; any read version
			// (even "absent") no longer matches a concurrent deletion.
			return true
		}
		effective, hasPending := pendingWrites[r.Key]
		if !hasPending {
			effective = v.db.Version(r.Key)
		}
		if effective != r.Version {
			return true
		}
	}
	return false
}

// BuildCommitBatch turns the block's validated transactions into a state
// update batch: the write sets of committed transactions are applied in
// order, each write stamped (blockNum, txNum). CRDT writes are included —
// by the time the committer calls this, the FabricCRDT merge engine has
// already rewritten their values to the converged documents (Algorithm 1,
// lines 16-22).
func BuildCommitBatch(blockNum uint64, txs []*ledger.Transaction, codes []ledger.ValidationCode) *statedb.UpdateBatch {
	batch := statedb.NewUpdateBatch()
	for i, tx := range txs {
		if !codes[i].Committed() {
			continue
		}
		version := rwset.Version{BlockNum: blockNum, TxNum: uint64(i)}
		for _, w := range tx.RWSet.Writes {
			if w.IsDelete {
				batch.Delete(w.Key, version)
				continue
			}
			batch.Put(w.Key, w.Value, version)
		}
	}
	return batch
}
