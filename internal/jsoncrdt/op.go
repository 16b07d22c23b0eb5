package jsoncrdt

import (
	"errors"
	"fmt"
	"math"

	"fabriccrdt/internal/lamport"
)

// ValueKind enumerates the primitive and container kinds a mutation can
// carry. Containers are created empty and filled by subsequent operations,
// exactly as in Kleppmann & Beresford's operational model.
type ValueKind int

const (
	// ValNull is the JSON null scalar.
	ValNull ValueKind = iota + 1
	// ValString is a JSON string scalar.
	ValString
	// ValNumber is a JSON number scalar (decoded as float64).
	ValNumber
	// ValBool is a JSON boolean scalar.
	ValBool
	// ValEmptyMap creates an empty JSON object node.
	ValEmptyMap
	// ValEmptyList creates an empty JSON array node.
	ValEmptyList
)

func (k ValueKind) String() string {
	switch k {
	case ValNull:
		return "null"
	case ValString:
		return "string"
	case ValNumber:
		return "number"
	case ValBool:
		return "bool"
	case ValEmptyMap:
		return "map"
	case ValEmptyList:
		return "list"
	default:
		return fmt.Sprintf("ValueKind(%d)", int(k))
	}
}

// Value is the payload of an assign or insert mutation.
type Value struct {
	Kind ValueKind `json:"kind"`
	Str  string    `json:"str,omitempty"`
	Num  number    `json:"num,omitzero"`
	Bool bool      `json:"bool,omitempty"`
}

// number is a Value's numeric payload. Its encoding is omitted only for +0:
// a -0 renders as -0, so it must survive decoding, and omitempty would drop
// it.
type number float64

// IsZero reports +0, for omitzero. The pointer receiver keeps encoding
// allocation-free: encoding/json calls it on the field's address.
func (n *number) IsZero() bool { return math.Float64bits(float64(*n)) == 0 }

// StringValue returns a string-scalar Value.
func StringValue(s string) Value { return Value{Kind: ValString, Str: s} }

// NumberValue returns a number-scalar Value.
func NumberValue(f float64) Value { return Value{Kind: ValNumber, Num: number(f)} }

// BoolValue returns a boolean-scalar Value.
func BoolValue(b bool) Value { return Value{Kind: ValBool, Bool: b} }

// NullValue returns the JSON null Value.
func NullValue() Value { return Value{Kind: ValNull} }

// IsScalar reports whether the value is a primitive (not a container).
func (v Value) IsScalar() bool {
	switch v.Kind {
	case ValNull, ValString, ValNumber, ValBool:
		return true
	}
	return false
}

// Interface returns the plain Go representation of a scalar value.
// Containers return nil.
func (v Value) Interface() any {
	switch v.Kind {
	case ValString:
		return v.Str
	case ValNumber:
		return float64(v.Num)
	case ValBool:
		return v.Bool
	default:
		return nil
	}
}

// CursorKind distinguishes the two ways a cursor step addresses a child.
type CursorKind int

const (
	// CursorMapKey addresses a map entry by its string key.
	CursorMapKey CursorKind = iota + 1
	// CursorListElem addresses a list element by its insertion ID.
	CursorListElem
)

// CursorElem is one step of a cursor path.
type CursorElem struct {
	Kind CursorKind `json:"kind"`
	Key  string     `json:"key,omitempty"`
	Elem lamport.ID `json:"elem,omitempty"`
}

// MapKey returns a cursor step addressing map key k.
func MapKey(k string) CursorElem { return CursorElem{Kind: CursorMapKey, Key: k} }

// ListElem returns a cursor step addressing the list element inserted by id.
func ListElem(id lamport.ID) CursorElem {
	return CursorElem{Kind: CursorListElem, Elem: id}
}

// Cursor is the path from the document root to the node a mutation targets
// (paper §5.2: "the cursor defines the path from the head of the JSON CRDT
// to the node where the mutation happens").
type Cursor []CursorElem

// Extend returns a new cursor with elem appended; the receiver is unchanged.
func (c Cursor) Extend(elem CursorElem) Cursor {
	out := make(Cursor, len(c)+1)
	copy(out, c)
	out[len(c)] = elem
	return out
}

// String renders the cursor as a /-separated path for diagnostics.
func (c Cursor) String() string {
	if len(c) == 0 {
		return "/"
	}
	s := ""
	for _, e := range c {
		switch e.Kind {
		case CursorMapKey:
			s += "/" + e.Key
		case CursorListElem:
			s += "/[" + e.Elem.String() + "]"
		}
	}
	return s
}

// MutationKind enumerates the operations of the JSON CRDT.
type MutationKind int

const (
	// MutAssign writes a value at the cursor target, clearing causally
	// prior content (concurrent content survives: add-wins).
	MutAssign MutationKind = iota + 1
	// MutInsert inserts a new list element after the element identified by
	// Mutation.After (zero ID inserts at the head). The cursor target is
	// the entry holding the list.
	MutInsert
	// MutDelete clears the cursor target's causally prior content.
	MutDelete
)

func (k MutationKind) String() string {
	switch k {
	case MutAssign:
		return "assign"
	case MutInsert:
		return "insert"
	case MutDelete:
		return "delete"
	default:
		return fmt.Sprintf("MutationKind(%d)", int(k))
	}
}

// Mutation is the modification applied at the cursor target.
type Mutation struct {
	Kind  MutationKind `json:"kind"`
	Value Value        `json:"value,omitempty"`
	// After identifies the list element the insert lands after; the zero
	// ID means "insert at list head". Only meaningful for MutInsert.
	After lamport.ID `json:"after,omitempty"`
}

// Operation is one JSON CRDT update: a globally unique identifier, the set
// of operations that must precede it (and that an assign/delete clears), the
// cursor locating its target, and the mutation itself.
type Operation struct {
	ID     lamport.ID   `json:"id"`
	Deps   []lamport.ID `json:"deps,omitempty"`
	Cursor Cursor       `json:"cursor,omitempty"`
	Mut    Mutation     `json:"mut"`
}

// Validation errors for operations.
var (
	ErrZeroOpID     = errors.New("jsoncrdt: operation has zero ID")
	ErrBadMutation  = errors.New("jsoncrdt: malformed mutation")
	ErrBadCursor    = errors.New("jsoncrdt: malformed cursor")
	ErrTypeConflict = errors.New("jsoncrdt: cursor step does not match node type")
)

// Validate performs structural checks on the operation.
func (op Operation) Validate() error {
	if op.ID.IsZero() {
		return ErrZeroOpID
	}
	switch op.Mut.Kind {
	case MutAssign, MutInsert:
		switch op.Mut.Value.Kind {
		case ValNull, ValString, ValNumber, ValBool, ValEmptyMap, ValEmptyList:
		default:
			return fmt.Errorf("%w: %s with value kind %d", ErrBadMutation, op.Mut.Kind, int(op.Mut.Value.Kind))
		}
	case MutDelete:
	default:
		return fmt.Errorf("%w: kind %d", ErrBadMutation, int(op.Mut.Kind))
	}
	if len(op.Cursor) == 0 {
		// The document root is a map, so every mutation targets the entry
		// of at least one map key.
		return fmt.Errorf("%w: %s requires a non-empty cursor", ErrBadCursor, op.Mut.Kind)
	}
	for _, e := range op.Cursor {
		switch e.Kind {
		case CursorMapKey:
		case CursorListElem:
			if e.Elem.IsZero() {
				return fmt.Errorf("%w: list step with zero element ID", ErrBadCursor)
			}
		default:
			return fmt.Errorf("%w: step kind %d", ErrBadCursor, int(e.Kind))
		}
	}
	return nil
}
