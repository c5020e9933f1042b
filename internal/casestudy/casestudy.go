// Package casestudy reproduces Section V of the paper: the 3-node grid of
// Fig. 5, the four task execution requirements of Fig. 6, the mapping
// analysis of Table II, and the ClustalW profiling of Fig. 10.
package casestudy

import (
	"fmt"
	"strings"

	"repro/internal/bio"
	"repro/internal/capability"
	"repro/internal/fabric"
	"repro/internal/hdl"
	"repro/internal/node"
	"repro/internal/pe"
	"repro/internal/profiler"
	"repro/internal/quipu"
	"repro/internal/rms"
	"repro/internal/sim"
	"repro/internal/task"
)

// BuildNodes constructs the case study's grid (Fig. 5):
//
//	Node0: 2 GPPs + 2 RPEs (a Virtex-6 XC6VLX365T and a Virtex-4 XC4VLX60)
//	Node1: 1 GPP + 2 RPEs (Virtex-5 parts above 24,000 slices)
//	Node2: 1 RPE (a large Virtex-5)
//
// Both of Node0's RPEs start "available and idle, not configured with any
// processor configuration", as Fig. 5's State0/State1 specify.
func BuildNodes() (*rms.Registry, error) {
	reg := rms.NewRegistry()

	n0, err := node.New("Node0")
	if err != nil {
		return nil, err
	}
	if _, err := n0.AddGPP(capability.GPPCaps{CPUType: "Intel Xeon E5540", MIPS: 42000, OS: "Linux", RAMMB: 16384, Cores: 4}); err != nil {
		return nil, err
	}
	if _, err := n0.AddGPP(capability.GPPCaps{CPUType: "Intel Core2 Q9550", MIPS: 28000, OS: "Linux", RAMMB: 8192, Cores: 4}); err != nil {
		return nil, err
	}
	if _, err := n0.AddRPE("XC6VLX365T"); err != nil {
		return nil, err
	}
	if _, err := n0.AddRPE("XC4VLX60"); err != nil {
		return nil, err
	}

	n1, err := node.New("Node1")
	if err != nil {
		return nil, err
	}
	if _, err := n1.AddGPP(capability.GPPCaps{CPUType: "AMD Opteron 250", MIPS: 9600, OS: "Linux", RAMMB: 4096, Cores: 1}); err != nil {
		return nil, err
	}
	if _, err := n1.AddRPE("XC5VLX155T"); err != nil { // 24,320 slices
		return nil, err
	}
	if _, err := n1.AddRPE("XC5VLX220T"); err != nil { // 34,560 slices
		return nil, err
	}

	n2, err := node.New("Node2")
	if err != nil {
		return nil, err
	}
	if _, err := n2.AddRPE("XC5VLX330T"); err != nil { // 51,840 slices
		return nil, err
	}

	for _, n := range []*node.Node{n0, n1, n2} {
		if err := reg.AddNode(n); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// Slice requirements quoted in Section V from the Quipu analysis.
const (
	// MalignSlices is the paper's Quipu estimate for malign.
	MalignSlices = 18707
	// PairalignSlices is the paper's Quipu estimate for pairalign.
	PairalignSlices = 30790
)

// Tasks builds the four case-study tasks with the execution requirements
// of Fig. 6:
//
//	Task0 — data distribution, GPP only (Section III-A)
//	Task1 — malign on any Virtex-5 with ≥18,707 slices (III-B2/III-B3)
//	Task2 — pairalign on any Virtex-5 with ≥30,790 slices (III-B2/III-B3)
//	Task3 — whole ClustalW as one device-specific bitstream for the
//	        XC6VLX365T (III-B3)
func Tasks() ([]*task.Task, error) {
	malign, err := hdl.LookupIP("malign-core")
	if err != nil {
		return nil, err
	}
	pairalign, err := hdl.LookupIP("pairalign-core")
	if err != nil {
		return nil, err
	}
	dev, err := fabric.LookupDevice("XC6VLX365T")
	if err != nil {
		return nil, err
	}
	// The Task3 developer ships a full-device bitstream of their own.
	userBS := fabric.FullBitstream(
		hdl.BitstreamID("clustalw-full", dev.FPGACaps.Device, false),
		"clustalw-full", dev, 49000)

	tasks := []*task.Task{
		{
			ID: "Task0",
			Inputs: []task.DataIn{
				{DataID: "sequences.fasta", SizeMB: 12},
			},
			Outputs: []task.DataOut{
				{DataID: "pair-chunks", SizeMB: 12},
				{DataID: "malign-chunks", SizeMB: 12},
			},
			ExecReq: task.ExecReq{
				Scenario:     pe.SoftwareOnly,
				Requirements: task.GPPOnly(9000, 2048),
			},
			EstimatedSeconds: 4,
			Work:             pe.Work{MInstructions: 40000, ParallelFraction: 0.1, DataMB: 24},
		},
		{
			ID: "Task1",
			Inputs: []task.DataIn{
				{SourceTask: "Task0", DataID: "malign-chunks", SizeMB: 12},
			},
			Outputs: []task.DataOut{{DataID: "alignment", SizeMB: 8}},
			ExecReq: task.ExecReq{
				Scenario:     pe.UserDefinedHW,
				Requirements: task.FPGAFamily("Virtex-5", MalignSlices),
				Design:       malign,
			},
			EstimatedSeconds: 30,
			Work:             pe.Work{MInstructions: 900000, ParallelFraction: 0.95, DataMB: 20, HWSpeedup: 40},
		},
		{
			ID: "Task2",
			Inputs: []task.DataIn{
				{SourceTask: "Task0", DataID: "pair-chunks", SizeMB: 12},
			},
			Outputs: []task.DataOut{{DataID: "distances", SizeMB: 2}},
			ExecReq: task.ExecReq{
				Scenario:     pe.UserDefinedHW,
				Requirements: task.FPGAFamily("Virtex-5", PairalignSlices),
				Design:       pairalign,
			},
			EstimatedSeconds: 120,
			Work:             pe.Work{MInstructions: 9000000, ParallelFraction: 0.98, DataMB: 14, HWSpeedup: 60},
		},
		{
			ID: "Task3",
			Inputs: []task.DataIn{
				{DataID: "sequences.fasta", SizeMB: 12},
			},
			Outputs: []task.DataOut{{DataID: "full-alignment", SizeMB: 8}},
			ExecReq: task.ExecReq{
				Scenario:     pe.DeviceSpecificHW,
				Requirements: task.FPGADevice("XC6VLX365T"),
				Bitstream:    userBS,
			},
			EstimatedSeconds: 90,
			Work:             pe.Work{MInstructions: 10000000, ParallelFraction: 0.97, DataMB: 20, HWSpeedup: 80},
		},
	}
	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			return nil, err
		}
	}
	return tasks, nil
}

// TableIIRow is one row of Table II.
type TableIIRow struct {
	Task     string
	Mappings []string
	Levels   string
}

// paperLevels are the "user-selected abstraction levels" column of
// Table II.
var paperLevels = map[string]string{
	"Task0": "Software-only application OR Predetermined hardware configuration",
	"Task1": "User-defined hardware configuration OR Device-specific hardware",
	"Task2": "User-defined hardware configuration OR Device-specific hardware",
	"Task3": "Device-specific hardware",
}

// TableII runs the matchmaker over the case-study grid and tasks,
// regenerating the paper's mapping table.
func TableII() ([]TableIIRow, error) {
	reg, err := BuildNodes()
	if err != nil {
		return nil, err
	}
	tc, err := hdl.DefaultToolchain()
	if err != nil {
		return nil, err
	}
	mm, err := rms.NewMatchmaker(reg, tc)
	if err != nil {
		return nil, err
	}
	tasks, err := Tasks()
	if err != nil {
		return nil, err
	}
	var rows []TableIIRow
	for _, t := range tasks {
		cands, err := mm.Candidates(t.ExecReq)
		if err != nil {
			return nil, fmt.Errorf("casestudy: matching %s: %w", t.ID, err)
		}
		row := TableIIRow{Task: t.ID, Levels: paperLevels[t.ID]}
		for _, c := range cands {
			row.Mappings = append(row.Mappings, c.Label())
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig10Result is the regenerated profiling figure plus the Quipu
// predictions Section V quotes.
type Fig10Result struct {
	// Top are the top-10 flat-profile kernels (self time).
	Top []profiler.FlatLine
	// PairalignPercent and MalignPercent are the cumulative shares of the
	// two driver kernels — the 89.76 % / 7.79 % numbers.
	PairalignPercent float64
	MalignPercent    float64
	// PairalignArea and MalignArea are the Quipu predictions — the
	// 30,790 / 18,707 slice numbers.
	PairalignArea quipu.Prediction
	MalignArea    quipu.Prediction
	// Columns is the produced alignment width (sanity evidence that the
	// workload really ran).
	Columns int
}

// Fig10Workload is the input scale used to regenerate Fig. 10. The family
// size is chosen so the quadratic pairalign stage dominates the linear
// malign stage at the paper's ratio.
func Fig10Workload() bio.FamilyOptions {
	return bio.FamilyOptions{Count: 40, Length: 200, SubstitutionRate: 0.15, IndelRate: 0.02}
}

// RunFig10 generates a synthetic protein family, round-trips it through
// FASTA (ClustalW's readseqs step, profiled as seq_input), runs the
// pipeline under the instrumenting profiler, and returns the top-10 kernel
// profile with the Quipu area predictions.
func RunFig10(seed uint64, opts bio.FamilyOptions) (*Fig10Result, error) {
	generated, err := bio.GenerateFamily(sim.NewRNG(seed), opts)
	if err != nil {
		return nil, err
	}
	prof, res, err := profileFig10(generated)
	if err != nil {
		return nil, err
	}
	total := prof.TotalSelf()
	if total <= 0 {
		return nil, fmt.Errorf("casestudy: profiler recorded no time")
	}
	cum := func(name string) float64 {
		for _, l := range prof.Flat() {
			if l.Name == name {
				return 100 * float64(l.Cumulative) / float64(total)
			}
		}
		return 0
	}
	model := quipu.Default()
	pa, err := model.Predict(quipu.PairalignMetrics())
	if err != nil {
		return nil, err
	}
	ma, err := model.Predict(quipu.MalignMetrics())
	if err != nil {
		return nil, err
	}
	return &Fig10Result{
		Top:              prof.Top(10),
		PairalignPercent: cum("pairalign"),
		MalignPercent:    cum("malign"),
		PairalignArea:    pa,
		MalignArea:       ma,
		Columns:          res.Columns(),
	}, nil
}

// profileFig10 runs the Fig. 10 pipeline once over a generated family
// under a fresh profiler.
func profileFig10(generated []bio.Sequence) (*profiler.Profiler, *bio.Result, error) {
	prof := profiler.New()

	// Sequence input: serialize and re-parse the family, as the real
	// application reads its input files.
	leave := prof.Enter("seq_input")
	var fasta strings.Builder
	if err := bio.WriteFASTA(&fasta, generated); err != nil {
		leave()
		return nil, nil, err
	}
	seqs, err := bio.ParseFASTA(strings.NewReader(fasta.String()))
	leave()
	if err != nil {
		return nil, nil, err
	}
	res, err := bio.Align(seqs, prof, bio.DefaultOptions())
	return prof, res, err
}

// FormatTableII renders rows in the paper's layout.
func FormatTableII(rows []TableIIRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s | %-55s | %s\n", "Task", "Possible mappings", "User-selected abstraction levels")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7s | %-55s | %s\n", r.Task, strings.Join(r.Mappings, ", "), r.Levels)
	}
	return b.String()
}
