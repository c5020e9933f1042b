package grid

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/capability"
	"repro/internal/fabric"
	"repro/internal/hdl"
	"repro/internal/pe"
	"repro/internal/sim"
	"repro/internal/task"
)

// WorkloadFileVersion is the current trace file schema version.
const WorkloadFileVersion = 1

// workloadFile is the JSON trace format for workloads, so experiments can
// be replayed and shared independently of the generator.
type workloadFile struct {
	Version int            `json:"version"`
	Tasks   []workloadTask `json:"tasks"`
}

type workloadTask struct {
	ID       string  `json:"id"`
	Arrival  float64 `json:"arrival_s"`
	Scenario string  `json:"scenario"`
	// Requirements uses the textual predicate form of
	// capability.ParseRequirements.
	Requirements string `json:"requirements"`
	SoftcoreISA  string `json:"softcore_isa,omitempty"`
	// Design names a library IP for user-defined-hardware tasks.
	Design string `json:"design,omitempty"`
	// Bitstream rebuilds a user-supplied image for device-specific tasks.
	Bitstream *workloadBitstream `json:"bitstream,omitempty"`

	WorkMI           float64 `json:"work_mi"`
	ParallelFraction float64 `json:"parallel_fraction"`
	DataMB           float64 `json:"data_mb"`
	HWSpeedup        float64 `json:"hw_speedup,omitempty"`
	EstimatedSeconds float64 `json:"t_estimated_s"`
}

type workloadBitstream struct {
	Design string `json:"design"`
	Device string `json:"device"`
	Slices int    `json:"slices"`
}

// SaveWorkload writes a generated workload as a JSON trace. A record
// with no requirement is an error that names it.
func SaveWorkload(w io.Writer, gen []Generated) error {
	file := workloadFile{Version: WorkloadFileVersion}
	for i, g := range gen {
		if g.ExecReq == nil {
			return fmt.Errorf("grid: task %d (%s): no execution requirement", i, g.ID)
		}
		wt := workloadTask{
			ID:               g.ID,
			Arrival:          float64(g.Arrival),
			Scenario:         g.ExecReq.Scenario.String(),
			Requirements:     g.ExecReq.Requirements.String(),
			SoftcoreISA:      g.ExecReq.SoftcoreISA,
			WorkMI:           g.Work.MInstructions,
			ParallelFraction: g.Work.ParallelFraction,
			DataMB:           g.Work.DataMB,
			HWSpeedup:        g.Work.HWSpeedup,
			EstimatedSeconds: g.EstimatedSeconds,
		}
		if d := g.ExecReq.Design; d != nil {
			wt.Design = d.Name
		}
		if bs := g.ExecReq.Bitstream; bs != nil {
			wt.Bitstream = &workloadBitstream{Design: bs.Design, Device: bs.Device, Slices: bs.Slices}
		}
		file.Tasks = append(file.Tasks, wt)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(file)
}

// reqKey identifies a trace task's requirement by its file fields.
type reqKey struct {
	scenario, requirements, softcoreISA, design string
	bitstream                                   workloadBitstream
	hasBitstream                                bool
}

// LoadWorkload reads a JSON trace back into a runnable workload. A file
// with no tasks is an error. Tasks whose requirement fields are equal
// share one requirement.
func LoadWorkload(r io.Reader) ([]Generated, error) {
	var file workloadFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		return nil, fmt.Errorf("grid: decoding workload: %w", err)
	}
	if file.Version != WorkloadFileVersion {
		return nil, fmt.Errorf("grid: workload file version %d, want %d", file.Version, WorkloadFileVersion)
	}
	if len(file.Tasks) == 0 {
		return nil, fmt.Errorf("grid: workload file has no tasks")
	}
	out := make([]Generated, len(file.Tasks))
	reqs := map[reqKey]*task.ExecReq{}
	for i, wt := range file.Tasks {
		if a := wt.Arrival; a < 0 || math.IsNaN(a) || math.IsInf(a, 0) {
			return nil, fmt.Errorf("grid: task %d: arrival %v is negative or not finite", i, a)
		}
		k := reqKey{scenario: wt.Scenario, requirements: wt.Requirements, softcoreISA: wt.SoftcoreISA, design: wt.Design}
		if wt.Bitstream != nil {
			k.bitstream, k.hasBitstream = *wt.Bitstream, true
		}
		req, ok := reqs[k]
		if !ok {
			var err error
			if req, err = loadReq(&wt); err != nil {
				return nil, fmt.Errorf("grid: task %d: %w", i, err)
			}
			reqs[k] = req
		}
		g := &out[i]
		*g = Generated{
			Arrival:          sim.Time(wt.Arrival),
			ID:               wt.ID,
			ExecReq:          req,
			EstimatedSeconds: wt.EstimatedSeconds,
			Work: pe.Work{
				MInstructions:    wt.WorkMI,
				ParallelFraction: wt.ParallelFraction,
				DataMB:           wt.DataMB,
				HWSpeedup:        wt.HWSpeedup,
			},
		}
		t := g.tuple()
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("grid: task %d: %w", i, err)
		}
	}
	return out, nil
}

// loadReq builds a trace task's requirement from its file fields.
func loadReq(wt *workloadTask) (*task.ExecReq, error) {
	scenario, err := pe.ParseScenario(wt.Scenario)
	if err != nil {
		return nil, err
	}
	preds, err := capability.ParseRequirements(wt.Requirements)
	if err != nil {
		return nil, err
	}
	req := &task.ExecReq{Scenario: scenario, Requirements: preds, SoftcoreISA: wt.SoftcoreISA}
	if wt.Design != "" {
		if req.Design, err = hdl.LookupIP(wt.Design); err != nil {
			return nil, err
		}
	}
	if bs := wt.Bitstream; bs != nil {
		dev, err := fabric.LookupDevice(bs.Device)
		if err != nil {
			return nil, err
		}
		req.Bitstream = fabric.FullBitstream(hdl.BitstreamID(bs.Design, dev.FPGACaps.Device, false), bs.Design, dev, bs.Slices)
	}
	return req, nil
}
