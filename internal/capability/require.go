package capability

import (
	"fmt"
	"strings"
)

// Op is a requirement comparison operator.
type Op int

// Requirement operators. OpHasAll applies to comma-separated text lists
// (functional-unit mixes): the capability must contain every requested item.
const (
	OpEq Op = iota
	OpNe
	OpGe
	OpLe
	OpGt
	OpLt
	OpHasAll
)

var opNames = map[Op]string{
	OpEq: "==", OpNe: "!=", OpGe: ">=", OpLe: "<=", OpGt: ">", OpLt: "<", OpHasAll: "has-all",
}

// String returns the operator's source form.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Requirement is one ExecReq predicate: "parameter <op> value".
type Requirement struct {
	Param string
	Op    Op
	Value Value
}

// String renders the predicate in source form.
func (r Requirement) String() string {
	return fmt.Sprintf("%s %s %s", r.Param, r.Op, r.Value)
}

// Eval evaluates the predicate against a capability set. A missing
// parameter fails the predicate (the device cannot prove the capability).
func (r Requirement) Eval(s Set) (bool, error) {
	have, ok := s[r.Param]
	if !ok {
		return false, nil
	}
	if r.Op == OpHasAll {
		if have.Type() != TypeText || r.Value.Type() != TypeText {
			return false, fmt.Errorf("capability: has-all needs text operands on %s", r.Param)
		}
		return textHasAll(have.TextValue(), r.Value.TextValue()), nil
	}
	cmp, err := have.Compare(r.Value)
	if err != nil {
		return false, fmt.Errorf("capability: %s: %w", r.Param, err)
	}
	switch r.Op {
	case OpEq:
		return cmp == 0, nil
	case OpNe:
		return cmp != 0, nil
	case OpGe:
		return cmp >= 0, nil
	case OpLe:
		return cmp <= 0, nil
	case OpGt:
		return cmp > 0, nil
	case OpLt:
		return cmp < 0, nil
	}
	return false, fmt.Errorf("capability: unknown operator %v", r.Op)
}

func textHasAll(have, want string) bool {
	haveSet := map[string]bool{}
	for _, item := range strings.Split(have, ",") {
		haveSet[strings.ToLower(strings.TrimSpace(item))] = true
	}
	for _, item := range strings.Split(want, ",") {
		item = strings.ToLower(strings.TrimSpace(item))
		if item == "" {
			continue
		}
		if !haveSet[item] {
			return false
		}
	}
	return true
}

// Requirements is a conjunction of predicates — the machine-readable body of
// an ExecReq (Fig. 4: "list of k parameters which define a typical NodeType
// required to execute the task").
type Requirements []Requirement

// Eq appends an equality predicate and returns the extended list, enabling
// fluent construction.
func (rs Requirements) Eq(param string, v Value) Requirements {
	return append(rs, Requirement{param, OpEq, v})
}

// Min appends a ">= n" predicate.
func (rs Requirements) Min(param string, n float64) Requirements {
	return append(rs, Requirement{param, OpGe, Num(n)})
}

// SatisfiedBy reports whether every predicate holds for the set.
func (rs Requirements) SatisfiedBy(s Set) (bool, error) {
	for _, r := range rs {
		ok, err := r.Eval(s)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// Kind infers which PE kind the requirements target from the parameter
// prefixes. Mixed-kind requirement lists return KindUnknown; such an ExecReq
// cannot be satisfied by a single processing element and is rejected by
// validation.
func (rs Requirements) Kind() Kind {
	kind := KindUnknown
	for _, r := range rs {
		k := KindOfParam(r.Param)
		if k == KindUnknown {
			continue
		}
		if kind == KindUnknown {
			kind = k
			continue
		}
		if kind != k {
			return KindUnknown
		}
	}
	return kind
}

// Validate rejects empty and mixed-kind requirement lists.
func (rs Requirements) Validate() error {
	if len(rs) == 0 {
		return fmt.Errorf("capability: empty requirements")
	}
	if rs.Kind() == KindUnknown {
		return fmt.Errorf("capability: requirements mix processing-element kinds or use unknown parameters")
	}
	return nil
}

// String renders the conjunction.
func (rs Requirements) String() string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = r.String()
	}
	return strings.Join(parts, " && ")
}
