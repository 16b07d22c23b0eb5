// Package jsoncrdt implements the JSON CRDT of Kleppmann & Beresford (IEEE
// TPDS 2017) as a FabricCRDT peer uses it (Middleware '19, §5.2): a
// single-replica document that MergeJSON, the paper's Algorithm 2, updates
// with the JSON values of a block's CRDT transactions in block order.
//
// The ordering service gives every peer the same transactions in the same
// order, so every peer applies the same operations in the same order and
// builds the same document; no operation is ever shipped between replicas,
// buffered for a missing dependency or applied twice. That total order is
// what lets the document keep no operation identifiers: an entry records
// only whether an operation keeps it alive, a register holds the one value
// the last assign wrote, and a list holds its elements in append order.
// ToJSON strips the remaining CRDT metadata — tombstones and the branches
// a type change left behind — and returns the plain value.
package jsoncrdt

import "errors"

// Errors returned by MergeJSON.
var (
	errRootNotObject   = errors.New("jsoncrdt: merged value must be a JSON object")
	errUnsupportedType = errors.New("jsoncrdt: unsupported Go value in JSON merge")
)

// Doc is a JSON CRDT document. The zero value is unusable; construct with
// NewDoc. Doc is not safe for concurrent use; FabricCRDT's committer
// drives each document from a single goroutine, mirroring Fabric's
// sequential block validation.
type Doc struct {
	root *mapNode
}

// NewDoc returns an empty document. Its argument is ignored; it stays only
// while the benchmark module still passes one (ROADMAP 0A(i)).
func NewDoc(string) *Doc {
	return &Doc{root: newMapNode()}
}
