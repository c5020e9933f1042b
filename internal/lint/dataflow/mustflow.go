package dataflow

import (
	"go/ast"
	"maps"
)

// ForwardMust runs a forward must-dataflow over cfg to its fixpoint and
// returns the set in force before every node of every reached block.
//
// The entry block starts from the empty set. Any other block starts
// from the intersection of its reached predecessors' exit sets; a key
// they share keeps the first reached predecessor's value. A block that
// no reached predecessor leads to is skipped until one does, so its
// nodes have no entry in the result when none ever does. step maps the
// set before a node to the set after it. It must not modify its
// argument and must return a non-nil set; it may return the argument
// itself when the node changes nothing.
//
// Consecutive nodes that a step leaves unchanged share one map, so
// every returned set is read-only.
func ForwardMust[S ~map[K]V, K, V comparable](cfg *CFG, step func(ast.Node, S) S) map[ast.Node]S {
	// A nil entry or exit set is a block not reached yet.
	in := make([]S, len(cfg.Blocks))
	out := make([]S, len(cfg.Blocks))
	before := make(map[ast.Node]S)
	for changed := true; changed; {
		changed = false
		for _, blk := range cfg.Blocks {
			var cur S
			if blk == cfg.Entry {
				cur = S{}
			} else {
				for _, p := range blk.Preds {
					switch o := out[p.Index]; {
					case o == nil:
					case cur == nil:
						cur = o
					default:
						cur = intersect(cur, o)
					}
				}
			}
			if cur == nil {
				continue
			}
			if in[blk.Index] == nil || !maps.Equal(in[blk.Index], cur) {
				in[blk.Index] = cur
				changed = true
			}
			for _, n := range blk.Nodes {
				before[n] = cur
				cur = step(n, cur)
			}
			if out[blk.Index] == nil || !maps.Equal(out[blk.Index], cur) {
				out[blk.Index] = cur
				changed = true
			}
		}
	}
	return before
}

// intersect returns the keys of a that b also holds, with a's values.
func intersect[S ~map[K]V, K comparable, V any](a, b S) S {
	out := make(S, len(a))
	for k, v := range a {
		if _, ok := b[k]; ok {
			out[k] = v
		}
	}
	return out
}
