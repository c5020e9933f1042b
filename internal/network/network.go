// Package network models the links between the grid's job-submission side
// and its nodes. The paper's scheduler "takes into account … the time
// required to send configuration bitstreams"; with heterogeneous links,
// the same bitstream costs different time per node, so placement becomes a
// locality decision as well as a capability decision.
package network

import "fmt"

// Link is one node's connectivity to the data/bitstream source.
type Link struct {
	BandwidthMBps  float64
	LatencySeconds float64
}

// Validate reports impossible links.
func (l Link) Validate() error {
	if l.BandwidthMBps <= 0 {
		return fmt.Errorf("network: non-positive bandwidth %g", l.BandwidthMBps)
	}
	if l.LatencySeconds < 0 {
		return fmt.Errorf("network: negative latency %g", l.LatencySeconds)
	}
	return nil
}

// TransferSeconds returns the time to move mb megabytes over the link.
func (l Link) TransferSeconds(mb float64) float64 {
	if mb < 0 {
		mb = 0
	}
	return l.LatencySeconds + mb/l.BandwidthMBps
}

// String renders the link.
func (l Link) String() string {
	return fmt.Sprintf("%g MB/s, %g ms", l.BandwidthMBps, l.LatencySeconds*1e3)
}

// Topology maps node IDs to links, with a default for unlisted nodes.
type Topology struct {
	def   Link
	links map[string]Link
}

// NewTopology creates a topology with the given default link.
func NewTopology(def Link) (*Topology, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	return &Topology{def: def, links: make(map[string]Link)}, nil
}

// Uniform returns a topology where every node shares one link.
func Uniform(bandwidthMBps, latencySeconds float64) (*Topology, error) {
	return NewTopology(Link{BandwidthMBps: bandwidthMBps, LatencySeconds: latencySeconds})
}

// SetLink overrides the link for one node.
func (t *Topology) SetLink(nodeID string, l Link) error {
	if nodeID == "" {
		return fmt.Errorf("network: empty node ID")
	}
	if err := l.Validate(); err != nil {
		return err
	}
	t.links[nodeID] = l
	return nil
}

// LinkTo returns the link for a node (the default when not overridden).
func (t *Topology) LinkTo(nodeID string) Link {
	if l, ok := t.links[nodeID]; ok {
		return l
	}
	return t.def
}
