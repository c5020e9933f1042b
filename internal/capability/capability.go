// Package capability models Table I of the reproduced paper: the parameter
// schemas that characterize every kind of processing element (FPGA, GPP,
// soft-core VLIW, GPU), the capability sets advertised by concrete devices,
// and the requirement predicates that task execution requirements (ExecReq)
// are written in.
//
// A capability set is a flat map from canonical parameter names (for example
// "fpga.slices") to typed values. Execution requirements are lists of
// (parameter, operator, value) triples evaluated against a set. This is the
// same matchmaking shape used by Condor ClassAds, which the paper cites as
// the state of the art it extends to reconfigurable elements.
package capability

import (
	"fmt"
	"sort"
	"strings"
)

// Kind identifies a class of processing element from the paper's taxonomy
// (Fig. 1) and Table I.
type Kind int

// The processing-element kinds of Table I.
const (
	KindUnknown Kind = iota
	KindFPGA
	KindGPP
	KindSoftcore
	KindGPU
)

// NumKinds sizes per-kind tables: Kind is a dense enum from KindUnknown
// to KindGPU, so an array of NumKinds entries indexed by Kind holds one
// entry per kind, in kind order.
const NumKinds = int(KindGPU) + 1

var kindNames = [NumKinds]string{
	KindUnknown:  "unknown",
	KindFPGA:     "FPGA",
	KindGPP:      "GPP",
	KindSoftcore: "Softcore",
	KindGPU:      "GPU",
}

// String returns the Table I row label for the kind.
func (k Kind) String() string {
	if k >= 0 && int(k) < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind converts a Table I row label back to a Kind.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if strings.EqualFold(name, s) {
			return Kind(k), nil
		}
	}
	return KindUnknown, fmt.Errorf("capability: unknown kind %q", s)
}

// ValueType discriminates the payload of a Value.
type ValueType int

// Value payload types.
const (
	TypeNumber ValueType = iota
	TypeText
	TypeBool
)

// Value is a typed capability or requirement value. Numbers cover counts,
// sizes, and rates; text covers identifiers such as device names; booleans
// cover feature flags such as an embedded Ethernet MAC.
type Value struct {
	typ ValueType
	num float64
	txt string
	b   bool
}

// Num constructs a numeric value.
func Num(v float64) Value { return Value{typ: TypeNumber, num: v} }

// Text constructs a text value.
func Text(s string) Value { return Value{typ: TypeText, txt: s} }

// Bool constructs a boolean value.
func Bool(b bool) Value { return Value{typ: TypeBool, b: b} }

// Type returns the payload type.
func (v Value) Type() ValueType { return v.typ }

// Number returns the numeric payload; it is 0 for non-numbers.
func (v Value) Number() float64 { return v.num }

// String returns a display form of the value.
func (v Value) String() string {
	switch v.typ {
	case TypeNumber:
		return fmt.Sprintf("%g", v.num)
	case TypeText:
		return v.txt
	case TypeBool:
		return fmt.Sprintf("%t", v.b)
	}
	return "?"
}

// TextValue returns the text payload; it is "" for non-text.
func (v Value) TextValue() string { return v.txt }

// BoolValue returns the boolean payload; it is false for non-booleans.
func (v Value) BoolValue() bool { return v.b }

// Equal reports exact equality of type and payload.
func (v Value) Equal(u Value) bool {
	if v.typ != u.typ {
		return false
	}
	switch v.typ {
	case TypeNumber:
		return v.num == u.num
	case TypeText:
		return v.txt == u.txt
	default:
		return v.b == u.b
	}
}

// Compare orders two values of the same type: -1, 0, +1. Text compares
// case-insensitively (device names are case-insensitive in vendor tools).
// Comparing values of different types returns an error.
func (v Value) Compare(u Value) (int, error) {
	if v.typ != u.typ {
		return 0, fmt.Errorf("capability: cannot compare %v with %v", v, u)
	}
	switch v.typ {
	case TypeNumber:
		switch {
		case v.num < u.num:
			return -1, nil
		case v.num > u.num:
			return 1, nil
		}
		return 0, nil
	case TypeText:
		return foldCompare(v.txt, u.txt), nil
	default:
		switch {
		case !v.b && u.b:
			return -1, nil
		case v.b && !u.b:
			return 1, nil
		}
		return 0, nil
	}
}

// Set is a capability set: canonical parameter name → value. Sets are what a
// node advertises for each of its processing elements (Fig. 3) and what
// ExecReq predicates are evaluated against (Fig. 4).
type Set map[string]Value

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Merge returns a new set with entries of o overriding entries of s.
func (s Set) Merge(o Set) Set {
	out := s.Clone()
	for k, v := range o {
		out[k] = v
	}
	return out
}

// Keys returns the parameter names in sorted order.
func (s Set) Keys() []string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// String renders the set as "k=v k=v ..." in sorted key order.
func (s Set) String() string {
	var b strings.Builder
	for i, k := range s.Keys() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", k, s[k])
	}
	return b.String()
}

// foldCompare orders two strings case-insensitively without allocating
// the lowered copies (text capability values are compared on every
// matchmaking pass). ASCII letters fold in place; any non-ASCII byte
// falls back to the allocating path for correct Unicode folding.
func foldCompare(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		ca, cb := a[i], b[i]
		if ca >= 0x80 || cb >= 0x80 {
			return strings.Compare(strings.ToLower(a[i:]), strings.ToLower(b[i:]))
		}
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		switch {
		case ca < cb:
			return -1
		case ca > cb:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}
