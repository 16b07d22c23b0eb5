package jsoncrdt

import (
	"math"
)

// scalarKind enumerates the JSON scalar kinds a register holds. The
// numbering is part of the persisted document state.
type scalarKind int

const (
	kindNull scalarKind = iota + 1
	kindString
	kindNumber
	kindBool
)

// scalar is one register value: a JSON scalar written by an assign or an
// appended list item.
type scalar struct {
	Kind scalarKind `json:"kind"`
	Str  string     `json:"str,omitempty"`
	Num  number     `json:"num,omitzero"`
	Bool bool       `json:"bool,omitempty"`
}

// number is a scalar's numeric payload. Its encoding is omitted only for
// +0: a -0 renders as -0, so it must survive decoding, and omitempty would
// drop it.
type number float64

// IsZero reports +0, for omitzero. The pointer receiver keeps encoding
// allocation-free: encoding/json calls it on the field's address.
func (n *number) IsZero() bool { return math.Float64bits(float64(*n)) == 0 }

// scalarValue converts a Go scalar into a register value. Callers switch
// on the same type set before calling.
func scalarValue(v any) scalar {
	switch tv := v.(type) {
	case string:
		return scalar{Kind: kindString, Str: tv}
	case float64:
		return scalar{Kind: kindNumber, Num: number(tv)}
	case float32:
		return scalar{Kind: kindNumber, Num: number(tv)}
	case int:
		return scalar{Kind: kindNumber, Num: number(tv)}
	case int64:
		return scalar{Kind: kindNumber, Num: number(tv)}
	case bool:
		return scalar{Kind: kindBool, Bool: tv}
	default:
		return scalar{Kind: kindNull}
	}
}

// plain returns the plain Go representation of the scalar.
func (s scalar) plain() any {
	switch s.Kind {
	case kindString:
		return s.Str
	case kindNumber:
		return float64(s.Num)
	case kindBool:
		return s.Bool
	default:
		return nil
	}
}
