package sched

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/capability"
	"repro/internal/fabric"
	"repro/internal/hdl"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/pe"
	"repro/internal/rms"
	"repro/internal/sim"
	"repro/internal/task"
)

// placeRig is a matchmaker over one node per device, N0, N1, …, each
// with one RPE, and a toolchain of its own, so no other test's synthesis
// is memoized in it.
type placeRig struct {
	mm    *rms.Matchmaker
	tc    *hdl.Toolchain
	nodes []*node.Node
}

func newPlaceRig(t *testing.T, devices ...fabric.Device) *placeRig {
	t.Helper()
	tc, err := hdl.NewToolchain("test", "Virtex-5")
	if err != nil {
		t.Fatal(err)
	}
	reg := rms.NewRegistry()
	r := &placeRig{tc: tc}
	for i, dev := range devices {
		n, err := node.New("N" + string(rune('0'+i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.AddRPEDevice(dev); err != nil {
			t.Fatal(err)
		}
		if err := reg.AddNode(n); err != nil {
			t.Fatal(err)
		}
		r.nodes = append(r.nodes, n)
	}
	if r.mm, err = rms.NewMatchmaker(reg, tc); err != nil {
		t.Fatal(err)
	}
	return r
}

// fabrics renders every node's fabric state.
func (r *placeRig) fabrics() []string {
	var out []string
	for _, n := range r.nodes {
		out = append(out, n.RPEs()[0].Fabric.State().String())
	}
	return out
}

// hog fills a node's fabric with one busy region, so Candidates still
// offers it a soft-core but Allocate refuses.
func (r *placeRig) hog(t *testing.T, i int) {
	t.Helper()
	f := r.nodes[i].RPEs()[0].Fabric
	region, _, err := f.ConfigurePartial(fabric.PartialBitstream("hog", "k", f.Device(), f.Device().Slices))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Acquire(region); err != nil {
		t.Fatal(err)
	}
}

func device(t *testing.T, name string) fabric.Device {
	t.Helper()
	dev, err := fabric.LookupDevice(name)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// optionNodes names the node of each option.
func optionNodes(opts []Option) []string {
	out := []string{}
	for _, o := range opts {
		out = append(out, o.Cand.Node.ID)
	}
	return out
}

// TestPlace pins the placement step's rules: a node the link cannot
// reach is neither estimated nor leased, an option whose estimate fails
// is dropped, an option Allocate refuses is dropped and the chooser runs
// again over the rest in their order, and a chooser that declines leases
// nothing. Every element Place does not lease is left as it was.
func TestPlace(t *testing.T) {
	lx110 := device(t, "XC5VLX110T")
	lx155 := device(t, "XC5VLX155T")
	// A part that synthesizes at a 0 MHz clock: its accelerator cannot
	// estimate, while Candidates and Allocate take it like any other.
	stalled := lx110
	stalled.FPGACaps.Device, stalled.SpeedGradeMHz = "XC5VLX110T-STALLED", 0

	design, err := hdl.LookupIP("fir64")
	if err != nil {
		t.Fatal(err)
	}
	softcore := task.ExecReq{Scenario: pe.PredeterminedHW, SoftcoreISA: "rvex-vliw",
		Requirements: capability.Requirements{}.Min(capability.ParamSoftIssueWidth, 2)}
	userHW := task.ExecReq{Scenario: pe.UserDefinedHW, Requirements: task.FPGAFamily("Virtex-5", 1), Design: design}
	work := pe.Work{MInstructions: 500, ParallelFraction: 0.9}

	for _, tc := range []struct {
		name    string
		devices []fabric.Device
		req     task.ExecReq
		hog     int    // node whose fabric a busy region fills; -1 for none
		cut     string // node the link cannot reach
		prefer  []string
		// calls is the nodes of the options each chooser call saw; leased
		// the node of the lease, "" for none.
		calls  [][]string
		leased string
	}{
		{
			name:    "allocate-refused",
			devices: []fabric.Device{lx110, lx110, lx110},
			req:     softcore, hog: 1,
			prefer: []string{"N1", "N2"},
			calls:  [][]string{{"N0", "N1", "N2"}, {"N0", "N2"}},
			leased: "N2",
		},
		{
			name:    "chooser-declines",
			devices: []fabric.Device{lx110, lx110},
			req:     softcore, hog: -1,
			calls: [][]string{{"N0", "N1"}},
		},
		{
			name:    "estimate-fails",
			devices: []fabric.Device{lx110, stalled, lx110},
			req:     userHW, hog: -1,
			prefer: []string{"N1", "N2"},
			calls:  [][]string{{"N0", "N2"}},
			leased: "N2",
		},
		{
			name:    "unreachable",
			devices: []fabric.Device{lx110, lx155, lx110},
			req:     userHW, hog: -1, cut: "N1",
			prefer: []string{"N1", "N2"},
			calls:  [][]string{{"N0", "N2"}},
			leased: "N2",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newPlaceRig(t, tc.devices...)
			if tc.hog >= 0 {
				r.hog(t, tc.hog)
			}
			before := r.fabrics()
			var asked []string
			link := func(id string) (network.Link, bool) {
				asked = append(asked, id)
				return network.Link{BandwidthMBps: 100}, id != tc.cut
			}
			var calls [][]string
			choose := func(opts []Option) int {
				calls = append(calls, optionNodes(opts))
				for _, want := range tc.prefer {
					for i, o := range opts {
						if o.Cand.Node.ID == want {
							return i
						}
					}
				}
				return -1
			}
			var buf []Option
			p, ok := Place(r.mm, &tc.req, work, link, choose, &buf)
			if !reflect.DeepEqual(calls, tc.calls) {
				t.Errorf("the chooser saw %v, want %v", calls, tc.calls)
			}
			// The link prices every candidate, in order, and then the lease.
			wantAsked := []string{"N0", "N1", "N2"}[:len(tc.devices)]
			if tc.leased != "" {
				wantAsked = append(wantAsked, tc.leased)
			}
			if !reflect.DeepEqual(asked, wantAsked) {
				t.Errorf("the link was asked about %v, want %v", asked, wantAsked)
			}
			if ok != (tc.leased != "") {
				t.Fatalf("placed = %v, want a lease on %q", ok, tc.leased)
			}
			after := r.fabrics()
			for i, n := range r.nodes {
				if n.ID == tc.leased {
					if p.Lease.Cand.Node != n || after[i] == before[i] {
						t.Errorf("the lease is on %s, and %s's fabric reads %s, want it leased", p.Lease.Cand.Node.ID, n.ID, after[i])
					}
					continue
				}
				if after[i] != before[i] {
					t.Errorf("%s's fabric went from %s to %s, but Place did not lease it", n.ID, before[i], after[i])
				}
			}
			if tc.cut != "" {
				// A synthesis that something ran already is returned
				// without being built again, so a first synthesis that
				// allocates shows the cut node was never estimated.
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				_, err := r.tc.Synthesize(design, lx155, lx155.PartialRecon)
				runtime.ReadMemStats(&m1)
				if err != nil {
					t.Fatal(err)
				}
				if m1.Mallocs == m0.Mallocs {
					t.Errorf("%s was synthesized for during Place: it was estimated though the link cannot reach it", tc.cut)
				}
			}
		})
	}
}

// TestPlaceTimeline pins the timeline a placement charges: with a link,
// the input data and the reconfiguring lease's bitstream cross it; with
// no link nothing crosses, and the span is (reconfiguration + compaction
// + synthesis) + execution bit for bit, as a control-plane tenant has
// always charged it.
func TestPlaceTimeline(t *testing.T) {
	lx110 := device(t, "XC5VLX110T")
	design, err := hdl.LookupIP("fir64")
	if err != nil {
		t.Fatal(err)
	}
	req := task.ExecReq{Scenario: pe.UserDefinedHW, Requirements: task.FPGAFamily("Virtex-5", 1), Design: design}
	work := pe.Work{MInstructions: 500, ParallelFraction: 0.9, DataMB: 8}
	wire := network.Link{BandwidthMBps: 125, LatencySeconds: 0.002}
	for _, tc := range []struct {
		name string
		link Link
	}{
		{"no-link", nil},
		{"link", func(string) (network.Link, bool) { return wire, true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newPlaceRig(t, lx110)
			var buf []Option
			p, ok := Place(r.mm, &req, work, tc.link, FirstFit{}.Choose, &buf)
			if !ok {
				t.Fatal("nothing placed")
			}
			l := &p.Lease
			if l.ReconfigDelay <= 0 || l.SynthesisSeconds <= 0 || l.BitstreamMB <= 0 {
				t.Fatalf("a first placement of a design should synthesize and reconfigure: %+v", l)
			}
			exec, err := l.Estimator.EstimateSeconds(work)
			if err != nil {
				t.Fatal(err)
			}
			if p.ExecSeconds != exec {
				t.Errorf("exec = %v, want the lease's estimate %v", p.ExecSeconds, exec)
			}
			want := 0.0
			if tc.link != nil {
				want = wire.TransferSeconds(work.DataMB + l.BitstreamMB)
			}
			if p.TransferSeconds != want {
				t.Errorf("transfer = %v, want %v", p.TransferSeconds, want)
			}
			span := want + l.SynthesisSeconds + float64(l.ReconfigDelay+l.CompactionDelay) + exec
			if tc.link == nil {
				span = float64(l.ReconfigDelay + l.CompactionDelay + sim.Time(l.SynthesisSeconds) + sim.Time(exec))
			}
			if p.SpanSeconds != span {
				t.Errorf("span = %v, want %v", p.SpanSeconds, span)
			}
		})
	}
}

// TestPlaceWarmZeroAllocs pins a warm placement, with a link and a
// strategy, as allocation-free: the engine and every tenant run one per
// task.
func TestPlaceWarmZeroAllocs(t *testing.T) {
	r := newPlaceRig(t, device(t, "XC5VLX110T"), device(t, "XC5VLX155T"))
	req := task.ExecReq{Scenario: pe.PredeterminedHW, SoftcoreISA: "rvex-vliw",
		Requirements: capability.Requirements{}.Min(capability.ParamSoftIssueWidth, 2)}
	work := pe.Work{MInstructions: 500, ParallelFraction: 0.9, DataMB: 1}
	link := func(string) (network.Link, bool) { return network.Link{BandwidthMBps: 125}, true }
	choose := ReconfigAware{}.Choose
	var buf []Option
	place := func() {
		p, ok := Place(r.mm, &req, work, link, choose, &buf)
		if !ok {
			t.Fatal("nothing placed")
		}
		if err := p.Lease.Release(); err != nil {
			t.Fatal(err)
		}
	}
	place()
	if avg := testing.AllocsPerRun(100, place); avg != 0 {
		t.Errorf("a warm placement allocates %.2f times, want 0", avg)
	}
}

// TestPlaceNilChooserIsFirstFit: with a nil chooser, Place leases what
// FirstFit.Choose leases and estimates no candidate past the lease. The
// link counts the estimates: Place consults it once per candidate it
// estimates, and once more to price the lease.
func TestPlaceNilChooserIsFirstFit(t *testing.T) {
	lx110 := device(t, "XC5VLX110T")
	req := task.ExecReq{Scenario: pe.PredeterminedHW, SoftcoreISA: "rvex-vliw",
		Requirements: capability.Requirements{}.Min(capability.ParamSoftIssueWidth, 2)}
	work := pe.Work{MInstructions: 500, ParallelFraction: 0.9, DataMB: 1}
	for _, tc := range []struct {
		name           string
		hog            int // node whose fabric a busy region fills; -1 for none
		leased         string
		firstFitLinks  int
		chooseAllLinks int
	}{
		{name: "first-fits", hog: -1, leased: "N0", firstFitLinks: 2, chooseAllLinks: 4},
		{name: "first-refused", hog: 0, leased: "N1", firstFitLinks: 3, chooseAllLinks: 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			place := func(choose func([]Option) int) (Placement, int) {
				r := newPlaceRig(t, lx110, lx110, lx110)
				if tc.hog >= 0 {
					r.hog(t, tc.hog)
				}
				links := 0
				link := func(string) (network.Link, bool) {
					links++
					return network.Link{BandwidthMBps: 125}, true
				}
				var buf []Option
				p, ok := Place(r.mm, &req, work, link, choose, &buf)
				if !ok {
					t.Fatal("nothing placed")
				}
				return p, links
			}
			got, gotLinks := place(nil)
			want, wantLinks := place(FirstFit{}.Choose)
			if got.Lease.Cand.Node.ID != tc.leased || want.Lease.Cand.Node.ID != tc.leased {
				t.Fatalf("leased %s with a nil chooser and %s with FirstFit, want %s", got.Lease.Cand.Node.ID, want.Lease.Cand.Node.ID, tc.leased)
			}
			if got.Lease.Cand.Elem.ID != want.Lease.Cand.Elem.ID || got.ExecSeconds != want.ExecSeconds ||
				got.TransferSeconds != want.TransferSeconds || got.SpanSeconds != want.SpanSeconds {
				t.Errorf("placements differ:\nnil chooser: %+v\nFirstFit:    %+v", got, want)
			}
			if gotLinks != tc.firstFitLinks || wantLinks != tc.chooseAllLinks {
				t.Errorf("link consulted %d times with a nil chooser and %d with FirstFit, want %d and %d",
					gotLinks, wantLinks, tc.firstFitLinks, tc.chooseAllLinks)
			}
		})
	}
}
