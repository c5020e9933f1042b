package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/lint/dataflow"
)

// resetGlobals clears the cross-run registries the driver populates.
func resetGlobals() {
	dataflow.Reset()
}

// simFixture is a minimal seed-respecting RNG package the seedflow
// analyzer recognizes by package and type name.
const simFixture = `package sim

type RNG struct{ state uint64 }

func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return r.state
}

func (r *RNG) SplitSeed(i uint64) uint64 {
	return r.state ^ (i * 0xbf58476d1ce4e5b9)
}
`

// TestSeedflowPlantedViaDriver checks the whole pipeline — loader,
// Prepare, whole-program graph, scoping — catches a planted constant
// seed in engine code.
func TestSeedflowPlantedViaDriver(t *testing.T) {
	resetGlobals()
	defer resetGlobals()
	dir := writeModule(t, map[string]string{
		"go.mod":              goMod,
		"internal/sim/sim.go": simFixture,
		"internal/grid/engine.go": `package grid

import (
	"math/rand"

	"lintvictim/internal/sim"
)

type Spec struct{ Seed uint64 }

func newShuffler(seed uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed)))
}

func RunScenario(spec Spec) uint64 {
	r := sim.NewRNG(spec.Seed) // good: spec-derived
	bad := rand.New(rand.NewSource(42))
	_ = newShuffler(7) // bad through a helper
	return r.Uint64() + uint64(bad.Int63())
}
`,
	})
	var stdout, stderr bytes.Buffer
	code := run(dir, []string{"./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "constant seed reaches rand.NewSource") {
		t.Errorf("planted rand.NewSource(42) not caught:\n%s", out)
	}
	if !strings.Contains(out, "newShuffler") && strings.Count(out, "seedflow") < 2 {
		t.Errorf("interprocedural constant seed through newShuffler not caught:\n%s", out)
	}
	if strings.Contains(out, "engine.go:16") {
		t.Errorf("spec-derived seed wrongly flagged:\n%s", out)
	}
}

// findingsModule has one errflow finding (a dropped error) and one
// detrand finding (a wall-clock read) in engine code.
func findingsModule(t *testing.T) string {
	return writeModule(t, map[string]string{
		"go.mod": goMod,
		"internal/grid/run.go": `package grid

import "time"

func helper() error { return nil }

func RunJob() int64 {
	helper()
	return time.Now().UnixNano()
}
`,
	})
}

// TestSARIFShape validates the -sarif document against the SARIF 2.1.0
// shape: schema/version header, tool.driver with rules, results with
// ruleId/ruleIndex/level/message/locations.
func TestSARIFShape(t *testing.T) {
	resetGlobals()
	defer resetGlobals()
	dir := findingsModule(t)
	var stdout, stderr bytes.Buffer
	code := run(dir, []string{"-sarif", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("-sarif output does not parse: %v", err)
	}
	if doc["$schema"] != "https://json.schemastore.org/sarif-2.1.0.json" {
		t.Errorf("$schema = %v", doc["$schema"])
	}
	if doc["version"] != "2.1.0" {
		t.Errorf("version = %v, want 2.1.0", doc["version"])
	}
	runs, ok := doc["runs"].([]interface{})
	if !ok || len(runs) != 1 {
		t.Fatalf("runs = %v, want one run", doc["runs"])
	}
	run0 := runs[0].(map[string]interface{})
	driver := run0["tool"].(map[string]interface{})["driver"].(map[string]interface{})
	if driver["name"] != "reconlint" {
		t.Errorf("driver name = %v", driver["name"])
	}
	rules := driver["rules"].([]interface{})
	if len(rules) == 0 {
		t.Fatal("driver.rules empty")
	}
	ruleIDs := make(map[string]int)
	for i, r := range rules {
		rm := r.(map[string]interface{})
		id, _ := rm["id"].(string)
		if id == "" {
			t.Fatalf("rule %d has no id", i)
		}
		if _, ok := rm["shortDescription"].(map[string]interface{})["text"].(string); !ok {
			t.Fatalf("rule %s has no shortDescription.text", id)
		}
		ruleIDs[id] = i
	}
	results, ok := run0["results"].([]interface{})
	if !ok || len(results) != 2 {
		t.Fatalf("results = %v, want 2", run0["results"])
	}
	for _, r := range results {
		res := r.(map[string]interface{})
		id := res["ruleId"].(string)
		if idx, ok := ruleIDs[id]; !ok || float64(idx) != res["ruleIndex"].(float64) {
			t.Errorf("result ruleId %q / ruleIndex %v inconsistent with rules", id, res["ruleIndex"])
		}
		if res["level"] != "error" {
			t.Errorf("result level = %v", res["level"])
		}
		msg := res["message"].(map[string]interface{})
		if msg["text"] == "" {
			t.Error("result has empty message.text")
		}
		locs := res["locations"].([]interface{})
		phys := locs[0].(map[string]interface{})["physicalLocation"].(map[string]interface{})
		if phys["artifactLocation"].(map[string]interface{})["uri"] != "internal/grid/run.go" {
			t.Errorf("artifactLocation = %v", phys["artifactLocation"])
		}
		if phys["region"].(map[string]interface{})["startLine"].(float64) <= 0 {
			t.Errorf("region = %v", phys["region"])
		}
	}
}
