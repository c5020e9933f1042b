// Package task implements the paper's application task model:
//
//	Task(TaskID, Data_in, Data_out, ExecReq, t_estimated)   (Eq. 2, Fig. 4)
//
// plus the application task graph (Fig. 7) and the Seq/Par application
// language of Eq. 3/4:
//
//	App{Seq(T2), Par(T4,T1,T7), Seq(T5,T10)}
package task

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/capability"
	"repro/internal/fabric"
	"repro/internal/hdl"
	"repro/internal/pe"
)

// DataIn identifies one input of a task: the producing task, the data item,
// and its size — exactly the (TaskID, DataID, DSize) triple of Fig. 4. An
// empty SourceTask means the data comes from the user's submission.
type DataIn struct {
	SourceTask string
	DataID     string
	SizeMB     float64
}

// DataOut identifies one output: (DataID, DSize).
type DataOut struct {
	DataID string
	SizeMB float64
}

// ExecReq is the execution requirement of a task (Fig. 4/6): the scenario
// it uses, the capability predicates the hosting processing element must
// satisfy, and the scenario-specific payload (soft-core choice, HDL design,
// or device-specific bitstream).
type ExecReq struct {
	// Scenario selects the use-case scenario and thereby the abstraction
	// level the task operates at.
	Scenario pe.Scenario
	// Requirements are the capability predicates ("NodeType parameters" in
	// Fig. 4) evaluated against candidate processing elements.
	Requirements capability.Requirements
	// SoftcoreISA names the required soft-core for PredeterminedHW tasks
	// (e.g. "rvex-vliw"); the provider maps it onto any fitting RPE.
	SoftcoreISA string
	// Design is the generic-HDL accelerator for UserDefinedHW tasks; the
	// provider synthesizes it for a device of its choosing.
	Design *hdl.Design
	// Bitstream is the user-supplied image for DeviceSpecificHW tasks; it
	// binds the task to one exact device.
	Bitstream *fabric.Bitstream
}

// Validate checks scenario/payload consistency.
func (e ExecReq) Validate() error {
	if err := e.Requirements.Validate(); err != nil {
		return err
	}
	switch e.Scenario {
	case pe.SoftwareOnly:
		if e.Design != nil || e.Bitstream != nil {
			return fmt.Errorf("task: software-only ExecReq carries hardware payloads")
		}
	case pe.PredeterminedHW:
		// Pre-determined architectures are soft-cores (named by ISA) or —
		// via the taxonomy's extensibility — GPUs (named by gpu.*
		// requirements).
		if e.SoftcoreISA == "" && e.Requirements.Kind() != capability.KindGPU {
			return fmt.Errorf("task: predetermined-hardware ExecReq names no soft-core ISA or GPU requirements")
		}
	case pe.UserDefinedHW:
		if e.Design == nil {
			return fmt.Errorf("task: user-defined-hardware ExecReq carries no HDL design")
		}
		if err := e.Design.Validate(); err != nil {
			return err
		}
	case pe.DeviceSpecificHW:
		if e.Bitstream == nil {
			return fmt.Errorf("task: device-specific ExecReq carries no bitstream")
		}
		if err := e.Bitstream.Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("task: unknown scenario %d", int(e.Scenario))
	}
	return nil
}

// Task is the paper's task tuple.
type Task struct {
	ID      string
	Inputs  []DataIn
	Outputs []DataOut
	ExecReq ExecReq
	// EstimatedSeconds is t_estimated: the completion-time estimate on a
	// processing element satisfying ExecReq.
	EstimatedSeconds float64
	// Work is the architecture-neutral demand used by the simulator to
	// derive actual execution times per processing element.
	Work pe.Work
}

// Validate checks the task tuple.
func (t *Task) Validate() error {
	if t == nil {
		return fmt.Errorf("task: nil task")
	}
	if t.ID == "" {
		return fmt.Errorf("task: task without an ID")
	}
	if err := t.ExecReq.Validate(); err != nil {
		return fmt.Errorf("task %s: %w", t.ID, err)
	}
	if t.EstimatedSeconds < 0 {
		return fmt.Errorf("task %s: negative t_estimated", t.ID)
	}
	if err := t.Work.Validate(); err != nil {
		return fmt.Errorf("task %s: %w", t.ID, err)
	}
	seen := map[string]bool{}
	for _, o := range t.Outputs {
		if o.DataID == "" {
			return fmt.Errorf("task %s: output without DataID", t.ID)
		}
		if o.SizeMB < 0 {
			return fmt.Errorf("task %s: output %s has negative size", t.ID, o.DataID)
		}
		if seen[o.DataID] {
			return fmt.Errorf("task %s: duplicate output %s", t.ID, o.DataID)
		}
		seen[o.DataID] = true
	}
	for _, in := range t.Inputs {
		if in.DataID == "" {
			return fmt.Errorf("task %s: input without DataID", t.ID)
		}
		if in.SizeMB < 0 {
			return fmt.Errorf("task %s: input %s has negative size", t.ID, in.DataID)
		}
	}
	return nil
}

// InputMB returns the total input volume.
func (t *Task) InputMB() float64 {
	var s float64
	for _, in := range t.Inputs {
		s += in.SizeMB
	}
	return s
}

// DependsOn returns the IDs of tasks whose outputs this task consumes, in
// input order with duplicates removed.
func (t *Task) DependsOn() []string {
	// Dedup by linear probe: dependency lists are a handful of entries,
	// and the dependency-free common case then allocates nothing at all.
	var out []string
	for _, in := range t.Inputs {
		if in.SourceTask == "" || slices.Contains(out, in.SourceTask) {
			continue
		}
		out = append(out, in.SourceTask)
	}
	return out
}

// String summarizes the tuple.
func (t *Task) String() string {
	return fmt.Sprintf("Task(%s, in=%d, out=%d, %s, t_est=%.3gs)",
		t.ID, len(t.Inputs), len(t.Outputs), t.ExecReq.Scenario, t.EstimatedSeconds)
}

// sanitizeID rejects IDs that would break the App language.
func sanitizeID(id string) error {
	if id == "" {
		return fmt.Errorf("task: empty ID")
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return fmt.Errorf("task: ID %q contains %q", id, r)
		}
	}
	return nil
}

// GPPOnly builds the requirements of a plain software task: a GPP with at
// least the given MIPS and RAM.
func GPPOnly(minMIPS float64, minRAMMB int) capability.Requirements {
	return capability.Requirements{}.
		Min(capability.ParamGPPMIPS, minMIPS).
		Min(capability.ParamGPPRAMMB, float64(minRAMMB))
}

// FPGAFamily builds the requirements of a family-portable hardware task: a
// device of the family with at least the given slices — the Task1/Task2
// pattern of the case study ("a Virtex-5 FPGA device with minimum of
// 18,707 slices").
func FPGAFamily(family string, minSlices int) capability.Requirements {
	return capability.Requirements{}.
		Eq(capability.ParamFPGAFamily, capability.Text(family)).
		Min(capability.ParamFPGASlices, float64(minSlices))
}

// FPGADevice builds the requirements of a device-specific task: one exact
// part — the Task3 pattern ("requires a particular device-specific
// hardware (Virtex XC6VLX365T)").
func FPGADevice(device string) capability.Requirements {
	return capability.Requirements{}.
		Eq(capability.ParamFPGADevice, capability.Text(strings.ToUpper(device)))
}
