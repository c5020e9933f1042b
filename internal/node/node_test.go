package node

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/capability"
	"repro/internal/fabric"
)

func xeonCaps() capability.GPPCaps {
	return capability.GPPCaps{CPUType: "Intel Xeon E5540", MIPS: 42000, OS: "Linux", RAMMB: 16384, Cores: 4}
}

func testNode(t *testing.T) *Node {
	t.Helper()
	n, err := New("Node0")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewValidates(t *testing.T) {
	if _, err := New(""); err == nil {
		t.Error("empty node ID accepted")
	}
}

func TestAddElementsAndIDs(t *testing.T) {
	n := testNode(t)
	g0, err := n.AddGPP(xeonCaps())
	if err != nil {
		t.Fatal(err)
	}
	g1, _ := n.AddGPP(xeonCaps())
	r0, err := n.AddRPE("XC6VLX365T")
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := n.AddRPE("XC5VLX155T")
	if g0.ID != "GPP0" || g1.ID != "GPP1" || r0.ID != "RPE0" || r1.ID != "RPE1" {
		t.Errorf("IDs = %s %s %s %s, want Fig. 5 naming", g0.ID, g1.ID, r0.ID, r1.ID)
	}
	if len(n.Elements()) != 4 || len(n.GPPs()) != 2 || len(n.RPEs()) != 2 {
		t.Error("element listing wrong")
	}
	if _, ok := n.Element("RPE1"); !ok {
		t.Error("lookup failed")
	}
}

func TestAddRejectsInvalid(t *testing.T) {
	n := testNode(t)
	if _, err := n.AddGPP(capability.GPPCaps{}); err != nil {
		// expected
	} else {
		t.Error("invalid GPP accepted")
	}
	if _, err := n.AddRPE("XC9VFAKE"); err == nil {
		t.Error("unknown device accepted")
	}
	if _, err := n.AddGPU(capability.GPUCaps{}, 100); err == nil {
		t.Error("invalid GPU accepted")
	}
}

func TestGPPCoreAccounting(t *testing.T) {
	n := testNode(t)
	g, _ := n.AddGPP(xeonCaps())
	if g.FreeCores() != 4 {
		t.Fatalf("free cores = %d", g.FreeCores())
	}
	for i := 0; i < 4; i++ {
		if err := g.AcquireCore(); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AcquireCore(); err == nil {
		t.Error("overcommit accepted")
	}
	if !g.Busy() {
		t.Error("4/4 busy should report Busy")
	}
	for i := 0; i < 4; i++ {
		if err := g.ReleaseCore(); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.ReleaseCore(); err == nil {
		t.Error("release of idle core accepted")
	}
	if g.Busy() {
		t.Error("idle GPP reports busy")
	}
}

func TestCoreOpsOnWrongKind(t *testing.T) {
	n := testNode(t)
	r, _ := n.AddRPE("XC5VLX110T")
	if err := r.AcquireCore(); err == nil {
		t.Error("AcquireCore on RPE accepted")
	}
	if err := r.ReleaseCore(); err == nil {
		t.Error("ReleaseCore on RPE accepted")
	}
	if err := r.AcquireGPU(); err == nil {
		t.Error("AcquireGPU on RPE accepted")
	}
	if r.FreeCores() != 0 {
		t.Error("RPE has cores?")
	}
}

func TestGPUAccounting(t *testing.T) {
	n := testNode(t)
	g, err := n.AddGPU(capability.GPUCaps{Model: "GT200", ShaderCores: 240, WarpSize: 32}, 1296)
	if err != nil {
		t.Fatal(err)
	}
	if g.ID != "GPU0" {
		t.Errorf("ID = %s", g.ID)
	}
	if err := g.AcquireGPU(); err != nil {
		t.Fatal(err)
	}
	if err := g.AcquireGPU(); err == nil {
		t.Error("double acquire accepted")
	}
	if !g.Busy() {
		t.Error("busy flag")
	}
	if err := g.ReleaseGPU(); err != nil {
		t.Fatal(err)
	}
	if err := g.ReleaseGPU(); err == nil {
		t.Error("double release accepted")
	}
}

func TestRemoveDynamic(t *testing.T) {
	n := testNode(t)
	n.AddGPP(xeonCaps())
	r, _ := n.AddRPE("XC5VLX110T")
	g1, _ := n.AddGPP(xeonCaps())
	if err := n.Remove("RPE0"); err != nil {
		t.Fatal(err)
	}
	if len(n.Elements()) != 2 || n.Elements()[1] != g1 {
		t.Error("element not removed, or the rest reordered")
	}
	// The element list is the only index: a removed ID no longer
	// resolves, the others still do, and unknown IDs keep their error.
	if e, ok := n.Element("RPE0"); ok || e != nil {
		t.Errorf("removed RPE0 still resolves to %v", e)
	}
	if e, ok := n.Element("GPP1"); !ok || e != g1 {
		t.Error("GPP1 lost by removing RPE0")
	}
	for _, id := range []string{"RPE0", "nope"} {
		if err := n.Remove(id); err == nil || err.Error() != "node: Node0 has no element "+id {
			t.Errorf("Remove(%s) = %v", id, err)
		}
	}
	if len(n.RPEs()) != 0 || len(n.GPPs()) != 2 {
		t.Errorf("ByKind after remove: %d RPEs, %d GPPs", len(n.RPEs()), len(n.GPPs()))
	}
	_ = r
}

func TestByKindOutOfRange(t *testing.T) {
	n := testNode(t)
	n.AddGPP(xeonCaps())
	for _, k := range []capability.Kind{-1, capability.KindSoftcore, capability.KindGPU + 1, 99} {
		if got := n.ByKind(k); got != nil {
			t.Errorf("ByKind(%v) = %v, want nil", k, got)
		}
	}
}

// setID is a capability set's map identity.
func setID(s capability.Set) uintptr { return reflect.ValueOf(s).Pointer() }

// TestCapSetsSharedPerDescription pins the intern tables: elements built
// from equal descriptions share one set, on any node and from concurrent
// installers, while a customized device gets a set of its own.
func TestCapSetsSharedPerDescription(t *testing.T) {
	const workers = 8
	gpps := make([]*Element, workers)
	rpes := make([]*Element, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, err := New("NodeX")
			if err != nil {
				t.Error(err)
				return
			}
			gpps[i], _ = n.AddGPP(xeonCaps())
			rpes[i], _ = n.AddRPE("XC5VLX155T")
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if setID(gpps[i].Caps()) != setID(gpps[0].Caps()) || setID(rpes[i].Caps()) != setID(rpes[0].Caps()) {
			t.Fatalf("installer %d got its own capability set", i)
		}
		if rpes[i].Fabric == rpes[0].Fabric {
			t.Fatalf("installer %d shares a fabric: dynamic state must stay per node", i)
		}
	}

	dev, err := fabric.LookupDevice("XC5VLX155T")
	if err != nil {
		t.Fatal(err)
	}
	dev.ReconfigMBps = 7
	custom, err := testNode(t).AddRPEDevice(dev)
	if err != nil {
		t.Fatal(err)
	}
	if setID(custom.Caps()) == setID(rpes[0].Caps()) {
		t.Error("a customized device shares the catalog device's set")
	}
	if got := custom.Caps()[capability.ParamFPGAReconfigMBps].Number(); got != 7 {
		t.Errorf("customized set reconfig bandwidth = %v, want 7", got)
	}
}

func TestRemoveBusyRejected(t *testing.T) {
	n := testNode(t)
	r, _ := n.AddRPE("XC5VLX110T")
	bs := fabric.PartialBitstream("p", "k", r.Fabric.Device(), 1000)
	reg, _, err := r.Fabric.ConfigurePartial(bs)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Fabric.Acquire(reg); err != nil {
		t.Fatal(err)
	}
	if err := n.Remove("RPE0"); err == nil {
		t.Error("busy RPE removed")
	}
	g, _ := n.AddGPP(xeonCaps())
	g.AcquireCore()
	if err := n.Remove(g.ID); err == nil {
		t.Error("busy GPP removed")
	}
}

func TestRPECapsMatchDevice(t *testing.T) {
	n := testNode(t)
	r, _ := n.AddRPE("XC6VLX365T")
	set := r.Caps()
	if set[capability.ParamFPGADevice].TextValue() != "XC6VLX365T" {
		t.Error("device cap missing")
	}
	if set[capability.ParamFPGASlices].Number() != 56880 {
		t.Errorf("slices = %v", set[capability.ParamFPGASlices].Number())
	}
	if !r.IsRPE() {
		t.Error("IsRPE")
	}
}

func TestSnapshotFormat(t *testing.T) {
	n := testNode(t)
	n.AddGPP(xeonCaps())
	n.AddRPE("XC6VLX365T")
	snap := n.Snapshot()
	out := snap.String()
	if !strings.Contains(out, "Node(Node0)") {
		t.Errorf("snapshot = %q", out)
	}
	if !strings.Contains(out, "GPP0") || !strings.Contains(out, "RPE0") {
		t.Error("snapshot missing elements")
	}
	if !strings.Contains(out, "not configured") {
		t.Error("fresh RPE should show idle unconfigured state (Fig. 5)")
	}
}

func TestStateLines(t *testing.T) {
	n := testNode(t)
	g, _ := n.AddGPP(xeonCaps())
	if !strings.Contains(g.StateLine(), "idle") {
		t.Errorf("idle GPP line = %q", g.StateLine())
	}
	g.AcquireCore()
	if !strings.Contains(g.StateLine(), "1/4") {
		t.Errorf("busy GPP line = %q", g.StateLine())
	}
	u, _ := n.AddGPU(capability.GPUCaps{Model: "m", ShaderCores: 8}, 500)
	if !strings.Contains(u.StateLine(), "idle") {
		t.Errorf("gpu line = %q", u.StateLine())
	}
	u.AcquireGPU()
	if !strings.Contains(u.StateLine(), "busy") {
		t.Errorf("gpu line = %q", u.StateLine())
	}
}

func TestAddRPEDevice(t *testing.T) {
	n := testNode(t)
	dev, err := fabric.LookupDevice("XC5VLX155T")
	if err != nil {
		t.Fatal(err)
	}
	dev.ReconfigMBps = 7 // customized part
	e, err := n.AddRPEDevice(dev)
	if err != nil {
		t.Fatal(err)
	}
	if e.Fabric.Device().ReconfigMBps != 7 {
		t.Error("device customization lost")
	}
	bad := dev
	bad.Slices = 0
	if _, err := n.AddRPEDevice(bad); err == nil {
		t.Error("invalid device accepted")
	}
}

// TestNaNDescriptionRejected: a NaN MIPS never equals itself, so an
// accepted NaN description would add a new capSets entry on every
// install, breaking the map's "distinct descriptions only" bound.
func TestNaNDescriptionRejected(t *testing.T) {
	n, err := New("n")
	if err != nil {
		t.Fatal(err)
	}
	size := func() int {
		capSets.mu.Lock()
		defer capSets.mu.Unlock()
		return len(capSets.sets)
	}
	before := size()
	for i := 0; i < 100; i++ {
		if _, err := n.AddGPP(capability.GPPCaps{CPUType: "x86-64", MIPS: math.NaN(), OS: "Linux", RAMMB: 1024, Cores: 1}); err == nil {
			t.Fatal("GPP with NaN MIPS installed")
		}
	}
	if grown := size() - before; grown != 0 {
		t.Errorf("capSets grew by %d entries for one rejected description", grown)
	}
}
