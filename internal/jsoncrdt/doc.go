// Package jsoncrdt implements the JSON CRDT of Kleppmann & Beresford (IEEE
// TPDS 2017) as a FabricCRDT peer uses it (Middleware '19, §5.2): a
// single-replica document that MergeJSON, the paper's Algorithm 2, updates
// with the JSON values of a block's CRDT transactions in block order.
//
// The ordering service gives every peer the same transactions in the same
// order, so every peer stamps the same Lamport identifiers and builds the
// same document; no operation is ever shipped between replicas, buffered
// for a missing dependency or applied twice. ToJSON strips all CRDT
// metadata and returns the plain value.
package jsoncrdt

import (
	"errors"

	"fabriccrdt/internal/lamport"
)

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
	clock *lamport.Clock
	root  *mapNode
}

// NewDoc returns an empty document whose operations are stamped with the
// given replica identifier.
func NewDoc(replica string) *Doc {
	return &Doc{clock: lamport.NewClock(replica), root: newMapNode()}
}

// Clock returns the identifier of the most recent operation. Its counter
// is the number of operations merged into the document.
func (d *Doc) Clock() lamport.ID { return d.clock.Now() }
