package network

import (
	"math"
	"strings"
	"testing"
)

func TestLinkValidate(t *testing.T) {
	if err := (Link{BandwidthMBps: 100, LatencySeconds: 0.001}).Validate(); err != nil {
		t.Errorf("good link rejected: %v", err)
	}
	if err := (Link{}).Validate(); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if err := (Link{BandwidthMBps: 1, LatencySeconds: -1}).Validate(); err == nil {
		t.Error("negative latency accepted")
	}
}

func TestTransferSeconds(t *testing.T) {
	l := Link{BandwidthMBps: 100, LatencySeconds: 0.01}
	// 50 MB at 100 MB/s = 0.5 s plus 10 ms latency.
	if got := l.TransferSeconds(50); math.Abs(got-0.51) > 1e-12 {
		t.Errorf("transfer = %v, want 0.51", got)
	}
	if got := l.TransferSeconds(0); got != 0.01 {
		t.Errorf("zero-byte transfer = %v, want latency only", got)
	}
	if got := l.TransferSeconds(-5); got != 0.01 {
		t.Errorf("negative volume should clamp: %v", got)
	}
	if !strings.Contains(l.String(), "MB/s") {
		t.Error("String")
	}
}

func TestTopologyDefaultsAndOverrides(t *testing.T) {
	topo, err := Uniform(125, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if topo.LinkTo("anything").BandwidthMBps != 125 {
		t.Error("default link wrong")
	}
	slow := Link{BandwidthMBps: 5, LatencySeconds: 0.1}
	if err := topo.SetLink("FarNode", slow); err != nil {
		t.Fatal(err)
	}
	if topo.LinkTo("FarNode") != slow {
		t.Error("override not applied")
	}
	if topo.LinkTo("NearNode").BandwidthMBps != 125 {
		t.Error("override leaked")
	}
}

func TestTopologyValidation(t *testing.T) {
	if _, err := NewTopology(Link{}); err == nil {
		t.Error("invalid default accepted")
	}
	topo, _ := Uniform(100, 0)
	if err := topo.SetLink("", Link{BandwidthMBps: 1}); err == nil {
		t.Error("empty node ID accepted")
	}
	if err := topo.SetLink("n", Link{}); err == nil {
		t.Error("invalid link accepted")
	}
}
