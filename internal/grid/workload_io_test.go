package grid

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/hdl"
	"repro/internal/pe"
	"repro/internal/rms"
	"repro/internal/sim"
	"repro/internal/task"
)

func TestWorkloadSaveLoadRoundTrip(t *testing.T) {
	ws := DefaultWorkload(40, 1)
	ws.ShareGPU = 0.1
	ws.ShareUserHW = 0.3
	ws.ShareSoftcore = 0.2
	gen, err := Generate(sim.NewRNG(12), ws)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveWorkload(&buf, gen); err != nil {
		t.Fatal(err)
	}
	back, err := LoadWorkload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(gen) {
		t.Fatalf("loaded %d tasks, want %d", len(back), len(gen))
	}
	for i := range gen {
		a, b := gen[i], back[i]
		if a.Arrival != b.Arrival || a.ID != b.ID {
			t.Fatalf("task %d identity changed", i)
		}
		if a.Work != b.Work {
			t.Fatalf("task %d work changed: %+v vs %+v", i, a.Work, b.Work)
		}
		if a.ExecReq.Scenario != b.ExecReq.Scenario {
			t.Fatalf("task %d scenario changed", i)
		}
		if a.ExecReq.Requirements.String() != b.ExecReq.Requirements.String() {
			t.Fatalf("task %d requirements changed: %s vs %s", i,
				a.ExecReq.Requirements, b.ExecReq.Requirements)
		}
		if (a.ExecReq.Design == nil) != (b.ExecReq.Design == nil) {
			t.Fatalf("task %d design presence changed", i)
		}
		if a.ExecReq.Design != nil && a.ExecReq.Design.Name != b.ExecReq.Design.Name {
			t.Fatalf("task %d design changed", i)
		}
	}
}

func TestWorkloadRoundTripSimulatesIdentically(t *testing.T) {
	ws := DefaultWorkload(50, 1)
	gen, _ := Generate(sim.NewRNG(3), ws)
	var buf bytes.Buffer
	if err := SaveWorkload(&buf, gen); err != nil {
		t.Fatal(err)
	}
	back, err := LoadWorkload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tc, _ := DefaultToolchain()
	run := func(g []Generated) *Metrics {
		reg, _ := BuildGrid(DefaultGridSpec())
		mm, _ := rms.NewMatchmaker(reg, tc)
		eng, _ := NewEngine(DefaultConfig(), reg, mm)
		eng.SubmitWorkload(g)
		m, err := eng.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1, m2 := run(gen), run(back)
	if m1.Makespan != m2.Makespan || m1.MeanWait() != m2.MeanWait() || m1.Reconfigs != m2.Reconfigs {
		t.Errorf("replay diverged: %v vs %v", m1, m2)
	}
}

func TestWorkloadDeviceSpecificRoundTrip(t *testing.T) {
	dev, _ := fabric.LookupDevice("XC6VLX365T")
	bs := fabric.FullBitstream(hdl.BitstreamID("user-app", dev.FPGACaps.Device, false), "user-app", dev, 40000)
	gen := []Generated{{
		Arrival: 3,
		ID:      "ds-1",
		ExecReq: task.ExecReq{
			Scenario:     pe.DeviceSpecificHW,
			Requirements: task.FPGADevice("XC6VLX365T"),
			Bitstream:    bs,
		},
		EstimatedSeconds: 10,
		Work:             pe.Work{MInstructions: 1e5, ParallelFraction: 0.9, DataMB: 5, HWSpeedup: 50},
	}}
	var buf bytes.Buffer
	if err := SaveWorkload(&buf, gen); err != nil {
		t.Fatal(err)
	}
	back, err := LoadWorkload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := back[0].ExecReq.Bitstream
	if got == nil || got.Device != "XC6VLX365T" || got.Slices != 40000 || got.Partial {
		t.Errorf("bitstream = %+v", got)
	}
}

func TestLoadWorkloadRejectsBadInput(t *testing.T) {
	cases := []string{
		`{`,
		`{"version":99,"tasks":[]}`,
		`{"version":1,"tasks":[{"id":"x","scenario":"quantum","requirements":"gpp.mips >= 1","work_mi":1,"parallel_fraction":0,"data_mb":0,"t_estimated_s":1}]}`,
		`{"version":1,"tasks":[{"id":"x","scenario":"software","requirements":"","work_mi":1,"parallel_fraction":0,"data_mb":0,"t_estimated_s":1}]}`,
		`{"version":1,"tasks":[{"id":"x","scenario":"user-defined","requirements":"fpga.slices >= 1","design":"no-such-ip","work_mi":1,"parallel_fraction":0,"data_mb":0,"t_estimated_s":1}]}`,
		`{"version":1,"tasks":[{"id":"x","scenario":"software","requirements":"gpp.mips >= 1","work_mi":0,"parallel_fraction":0,"data_mb":0,"t_estimated_s":1}]}`,
		`{"version":1,"unknown_field":1,"tasks":[]}`,
	}
	for i, c := range cases {
		if _, err := LoadWorkload(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestLoadWorkloadRejectsEmptyTrace: a trace file with no tasks is an
// input error that says so, not a run of nothing.
func TestLoadWorkloadRejectsEmptyTrace(t *testing.T) {
	for _, in := range []string{`{"version":1,"tasks":[]}`, `{"version":1}`} {
		_, err := LoadWorkload(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "no tasks") {
			t.Errorf("LoadWorkload(%s) = %v, want an error saying the file has no tasks", in, err)
		}
	}
}

// TestLoadWorkloadRejectsNegativeArrival: a trace file cannot schedule an
// arrival before time zero, and the error names the offending task.
func TestLoadWorkloadRejectsNegativeArrival(t *testing.T) {
	const task = `{"id":"%s","arrival_s":%s,"scenario":"software","requirements":"gpp.mips >= 1","work_mi":1,"parallel_fraction":0,"data_mb":0,"t_estimated_s":1}`
	in := `{"version":1,"tasks":[` + fmt.Sprintf(task, "a", "0") + `,` + fmt.Sprintf(task, "b", "-1") + `]}`
	_, err := LoadWorkload(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "task 1:") {
		t.Fatalf("LoadWorkload = %v, want an error naming task 1", err)
	}
}
