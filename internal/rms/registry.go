// Package rms implements the paper's Resource Management System: the node
// registry with dynamic add/remove and status updates, the matchmaker that
// evaluates task execution requirements against node capabilities (the
// engine behind Table II), and allocation leases that bind a task to a
// processing element — reconfiguring fabric on the way when needed.
package rms

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/node"
)

// Registry tracks the nodes of a grid. It is safe for concurrent use: the
// paper's RMS "updates the statuses of all nodes" while submissions arrive.
//
// The node list is its only index: lookups by ID scan it, and they run
// only while a grid is built and on fault or churn events, whereas the
// matchmaker scans every node on every dispatch anyway.
type Registry struct {
	mu    sync.RWMutex
	nodes []*node.Node // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// indexLocked returns the position of the node with the given ID, or -1.
// The caller holds mu.
func (r *Registry) indexLocked(id string) int {
	return slices.IndexFunc(r.nodes, func(n *node.Node) bool { return n.ID == id })
}

// AddNode registers a node; duplicate IDs are rejected. Nodes can join at
// any time — the framework is "adaptive in adding/removing resources at
// runtime".
func (r *Registry) AddNode(n *node.Node) error {
	if n == nil {
		return fmt.Errorf("rms: nil node")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.indexLocked(n.ID) >= 0 {
		return fmt.Errorf("rms: duplicate node %s", n.ID)
	}
	r.nodes = append(r.nodes, n)
	return nil
}

// RemoveNode detaches a node. Nodes with busy elements are refused, so
// running tasks are never orphaned.
func (r *Registry) RemoveNode(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.indexLocked(id)
	if i < 0 {
		return fmt.Errorf("rms: unknown node %s", id)
	}
	for _, e := range r.nodes[i].Elements() {
		if e.Busy() {
			return fmt.Errorf("rms: node %s element %s is busy", id, e.ID)
		}
	}
	r.nodes = append(r.nodes[:i], r.nodes[i+1:]...)
	return nil
}

// Node returns a registered node by ID.
func (r *Registry) Node(id string) (*node.Node, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	i := r.indexLocked(id)
	if i < 0 {
		return nil, false
	}
	return r.nodes[i], true
}

// Nodes returns the registered nodes in registration order.
func (r *Registry) Nodes() []*node.Node {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*node.Node(nil), r.nodes...)
}

// AppendTo appends the registered nodes in registration order to buf and
// returns the extended slice. Hot paths that scan the grid once per
// dispatch reuse one scratch buffer through this instead of paying
// Nodes' fresh copy every call.
func (r *Registry) AppendTo(buf []*node.Node) []*node.Node {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append(buf, r.nodes...)
}

// Len returns the node count.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Status returns a snapshot of every node — the RMS's status-update view.
func (r *Registry) Status() []node.Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]node.Snapshot, 0, len(r.nodes))
	for _, n := range r.nodes {
		out = append(out, n.Snapshot())
	}
	return out
}
