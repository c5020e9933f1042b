package main

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

// SARIF 2.1.0 document shape, reduced to the fields code-scanning
// consumers require (schema, version, tool.driver.rules, results with
// ruleId/ruleIndex/level/message/locations).
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

const sarifSchemaURI = "https://json.schemastore.org/sarif-2.1.0.json"

// writeSARIF emits findings as a SARIF 2.1.0 log on w. Every suite
// analyzer is listed as a rule (plus the "reconlint" pseudo-rule for
// directive problems) so ruleIndex stays meaningful even on clean runs.
func writeSARIF(w io.Writer, absDir string, diags []lint.Diagnostic, suite []lint.ScopedAnalyzer) error {
	rules := []sarifRule{{
		ID:               "reconlint",
		ShortDescription: sarifMessage{Text: "directive hygiene: reconlint:allow and reconlint:sanitized need a reason"},
	}}
	index := map[string]int{"reconlint": 0}
	for _, sa := range suite {
		index[sa.Name] = len(rules)
		rules = append(rules, sarifRule{ID: sa.Name, ShortDescription: sarifMessage{Text: sa.Doc}})
	}
	results := []sarifResult{}
	for _, d := range diags {
		ri, ok := index[d.Analyzer]
		if !ok {
			ri = 0
		}
		results = append(results, sarifResult{
			RuleID:    d.Analyzer,
			RuleIndex: ri,
			Level:     "error",
			Message:   sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: relPath(absDir, d.Position.Filename)},
					Region:           sarifRegion{StartLine: d.Position.Line, StartColumn: d.Position.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  sarifSchemaURI,
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "reconlint", InformationURI: "https://example.invalid/reconlint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// relPath renders a finding path relative to the lint root; paths
// outside the root stay absolute.
func relPath(absDir, filename string) string {
	rel, err := filepath.Rel(absDir, filename)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return filepath.ToSlash(filename)
	}
	return filepath.ToSlash(rel)
}
