package dataflow_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/lint/dataflow"
)

// anyTaintedSink reports whether any sink in the summary is reached by
// a genuinely tainted value (param-only sinks are propagation plumbing,
// not findings).
func anyTaintedSink(sum *dataflow.TaintSummary) bool {
	if sum == nil {
		return false
	}
	for _, s := range sum.Sinks {
		if s.Val.Tainted {
			return true
		}
	}
	return false
}

// TestTaintWireSource pins the source definition: json-tagged fields of
// structs declared in a controlplane package are hostile; untagged
// fields are not.
func TestTaintWireSource(t *testing.T) {
	src := `package controlplane

type Request struct {
	Count  int ` + "`json:\"count\"`" + `
	hidden int
}

func tagged(req Request) { _ = make([]byte, req.Count) }
func untagged(req Request) { _ = make([]byte, req.hidden) }
`
	g := dataflow.Build([]*dataflow.PackageInfo{load(t, "controlplane", src)})
	if sum := g.Taint(fn(t, g, "tagged").Fn); !anyTaintedSink(sum) {
		t.Error("tagged: json-tagged wire field did not taint the make size")
	} else if want := "wire field Request.Count"; sum.Sinks[0].Val.Src != want {
		t.Errorf("tagged: Src = %q, want %q", sum.Sinks[0].Val.Src, want)
	}
	if anyTaintedSink(g.Taint(fn(t, g, "untagged").Fn)) {
		t.Error("untagged: field without a json tag was treated as a wire source")
	}
}

// TestTaintSanitizerRecognition drives each recognized sanitizer form —
// and the near-misses that must NOT sanitize — through a sink.
func TestTaintSanitizerRecognition(t *testing.T) {
	header := `package controlplane

type Request struct {
	Count int    ` + "`json:\"count\"`" + `
	Tenant string ` + "`json:\"tenant\"`" + `
	Op     string ` + "`json:\"op\"`" + `
}
`
	cases := []struct {
		name    string
		body    string
		tainted bool
	}{
		{"reject guard", `
func use(req Request) {
	if req.Count > 1024 {
		return
	}
	_ = make([]byte, req.Count)
}`, false},
		{"lower bound only", `
func use(req Request) {
	if req.Count < 1 {
		return
	}
	_ = make([]byte, req.Count)
}`, true},
		{"len guard leaves content tainted", `
func use(req Request) {
	s := req.Tenant
	if len(s) > 8 {
		return
	}
	panic(s)
}`, true},
		{"min builtin clamp", `
func use(req Request) {
	n := min(req.Count, 1024)
	_ = make([]byte, n)
}`, false},
		{"clamp-named helper", `
func clampCount(n int) int {
	if n > 1024 {
		return 1024
	}
	return n
}

func use(req Request) {
	_ = make([]byte, clampCount(req.Count))
}`, false},
		{"clamp assignment", `
func use(req Request) {
	n := req.Count
	if n > 1024 {
		n = 1024
	}
	_ = make([]byte, n)
}`, false},
		{"directive with reason", `
func use(req Request) {
	//reconlint:sanitized the test vouches for this size
	_ = make([]byte, req.Count)
}`, false},
		{"directive without reason sanitizes nothing", `
func use(req Request) {
	//reconlint:sanitized
	_ = make([]byte, req.Count)
}`, true},
		{"membership reject", `
var valid = map[string]bool{"submit": true}

func use(req Request) {
	if !valid[req.Op] {
		return
	}
	panic(req.Op)
}`, false},
		{"validator call guard", `
func (r Request) Validate() error { return nil }

func use(req Request) {
	if err := req.Validate(); err != nil {
		return
	}
	_ = make([]byte, req.Count)
}`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := dataflow.Build([]*dataflow.PackageInfo{load(t, "controlplane", header+tc.body)})
			if got := anyTaintedSink(g.Taint(fn(t, g, "use").Fn)); got != tc.tainted {
				t.Errorf("tainted = %v, want %v", got, tc.tainted)
			}
		})
	}
}

// TestTaintThroughChannelMHP pins the channel hop and its pairing with
// the MHP layer: a value received in one goroutine is tainted by the
// wire field another goroutine sent, the sender is recorded for the
// diagnostic, and MHP confirms the two endpoints actually overlap.
func TestTaintThroughChannelMHP(t *testing.T) {
	src := `package controlplane

type Request struct {
	Count int ` + "`json:\"count\"`" + `
}

var sizeCh = make(chan int)

func producer(req Request) {
	sizeCh <- req.Count
}

func consumer() {
	n := <-sizeCh
	_ = make([]byte, n)
}

func boot(req Request) {
	go producer(req)
	go consumer()
}
`
	g := dataflow.Build([]*dataflow.PackageInfo{load(t, "controlplane", src)})
	producer, consumer := fn(t, g, "producer").Fn, fn(t, g, "consumer").Fn
	sum := g.Taint(consumer)
	if !anyTaintedSink(sum) {
		t.Fatal("consumer's make size not tainted through the channel")
	}
	if want := "wire field Request.Count"; sum.Sinks[0].Val.Src != want {
		t.Errorf("Src = %q, want %q preserved across the send", sum.Sinks[0].Val.Src, want)
	}
	if !g.MHP().MayHappenInParallel(producer, consumer) {
		t.Error("MHP: producer and consumer should overlap (both spawned)")
	}
}

// TestTaintReorderProperty is the randomized property test: the local
// fixpoint is flow-insensitive over straight-line assignments, so any
// statement order must propagate taint through a 5-step copy chain to
// the sink. 30 seeded shuffles keep the test deterministic.
func TestTaintReorderProperty(t *testing.T) {
	base := []string{
		"a0 = req.Count",
		"a1 = a0",
		"a2 = a1",
		"a3 = a2",
		"a4 = a3",
	}
	for seed := 0; seed < 30; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		stmts := append([]string(nil), base...)
		rng.Shuffle(len(stmts), func(i, j int) { stmts[i], stmts[j] = stmts[j], stmts[i] })
		src := fmt.Sprintf(`package controlplane

type Request struct {
	Count int `+"`json:\"count\"`"+`
}

func use(req Request) {
	var a0, a1, a2, a3, a4 int
	%s
	_ = make([]byte, a4)
}
`, strings.Join(stmts, "\n\t"))
		g := dataflow.Build([]*dataflow.PackageInfo{load(t, "controlplane", src)})
		if !anyTaintedSink(g.Taint(fn(t, g, "use").Fn)) {
			t.Fatalf("seed %d: order %v lost the taint chain", seed, stmts)
		}
	}
}
