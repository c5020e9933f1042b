// Package wiretaint implements the reconlint analyzer that polices the
// multi-tenant trust boundary: no attacker-controlled value may reach a
// resource-shaping operation unbounded.
//
// PR 8 turned the reproduction into a long-running RMS server, so every
// field of a wire-decoded request is hostile input — the grid-services
// trust model PROTEUS and RC3E assume a resource manager enforces. The
// 64KB request cap bounds the *message*, not the *meaning*: a 40-byte
// request carrying {"work_mi": 9e18} is syntactically tiny and
// semantically a denial of service if that number reaches a `make`
// size, a loop bound, a goroutine-spawn count, a time.Duration, a panic
// argument, or a file path.
//
// Using the dataflow layer's taint lattice (see dataflow/taint.go), the
// analyzer reports every sink in this package's functions reached by a
// tainted value, with the full source→sink chain, exactly like
// seedflow: "wire field TaskSpec.WorkMI reaches an allocation size:
// make (via buildTask -> reserve)". Taint propagates through function
// summaries and channel sends, so a value a shard goroutine receives
// from the dispatcher inbox is as hostile as the decode that produced
// it.
//
// Sanitizers — upper-bound guards, min/clamp, membership checks against
// fixed tables, Validate-style calls, and the //reconlint:sanitized
// directive — lower values back to trusted; see the dataflow package
// doc for the exact recognized forms.
package wiretaint

import (
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/dataflow"
)

// Analyzer is the wiretaint analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "wiretaint",
	Doc:  "tenant-controlled wire values (and operator flag/env input) must be bounded before reaching allocation sizes, loop bounds, spawn counts, durations, panics, or file paths",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	g := dataflow.Resolve(pass.Fset, pass.Files, pass.Pkg, pass.TypesInfo)
	for _, node := range g.SortedFuncs() {
		if node.Pkg != pass.Pkg {
			continue
		}
		sum := g.Taint(node.Fn)
		if sum == nil {
			continue
		}
		for _, sink := range sum.Sinks {
			if !sink.Val.Tainted {
				continue
			}
			switch sink.Kind {
			case dataflow.TaintFormatString, dataflow.TaintFormatArg:
				continue // logtaint's kinds
			}
			pass.Reportf(sink.Pos,
				"%s reaches %s: %s — clamp or reject it at the trust boundary",
				sink.Val.Src, sink.Kind, DescribeChain(sink.Chain))
		}
	}
	return nil, nil
}

// DescribeChain renders a sink chain: "make" for a direct sink,
// "make (via buildTask -> reserve)" for one forwarded through callees.
// Shared by the two taint analyzers.
func DescribeChain(chain []string) string {
	if len(chain) == 0 {
		return "a sink"
	}
	op := chain[len(chain)-1]
	if len(chain) == 1 {
		return op
	}
	return op + " (via " + strings.Join(chain[:len(chain)-1], " -> ") + ")"
}
