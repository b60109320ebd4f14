// Package render serializes chantvet findings: the classic vet-style text
// lines and a minimal SARIF 2.1.0 log for code-scanning upload in CI. Both
// formats are deterministic — struct (not map) marshaling plus the
// registry's total finding order mean two runs over the same tree produce
// byte-identical output, which the test suite asserts and which keeps CI
// artifact diffs meaningful.
package render

import (
	"encoding/json"
	"fmt"
	"io"

	"chant/internal/analysis"
	"chant/internal/analysis/registry"
)

// Text writes the classic `file:line:col: analyzer: message` lines.
func Text(w io.Writer, findings []registry.Finding) error {
	for _, f := range findings {
		if _, err := fmt.Fprintf(w, "%s: %s: %s\n", f.Position(), f.Analyzer, f.Message); err != nil {
			return err
		}
	}
	return nil
}

// The SARIF types below cover the subset of SARIF 2.1.0 that code-scanning
// consumers require: tool metadata with one reportingDescriptor per
// analyzer, and one result per finding with a physical location.

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
	ID   string `json:"id"`
	Desc struct {
		Text string `json:"text"`
	} `json:"shortDescription"`
}

type sarifResult struct {
	RuleID  string `json:"ruleId"`
	Level   string `json:"level"`
	Message struct {
		Text string `json:"text"`
	} `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation struct {
		ArtifactLocation struct {
			URI string `json:"uri"`
		} `json:"artifactLocation"`
		Region struct {
			StartLine   int `json:"startLine"`
			StartColumn int `json:"startColumn"`
		} `json:"region"`
	} `json:"physicalLocation"`
}

// SARIF writes a SARIF 2.1.0 log with one rule per analyzer and one error-
// level result per finding.
func SARIF(w io.Writer, findings []registry.Finding, analyzers []*analysis.Analyzer) error {
	driver := sarifDriver{
		Name:           "chantvet",
		InformationURI: "https://example.invalid/chant/chantvet",
	}
	for _, a := range analyzers {
		rule := sarifRule{ID: a.Name}
		rule.Desc.Text = a.Doc
		driver.Rules = append(driver.Rules, rule)
	}
	run := sarifRun{Tool: sarifTool{Driver: driver}, Results: make([]sarifResult, 0, len(findings))}
	for _, f := range findings {
		pos := f.Position()
		res := sarifResult{RuleID: f.Analyzer, Level: "error"}
		res.Message.Text = f.Message
		var loc sarifLocation
		loc.PhysicalLocation.ArtifactLocation.URI = pos.Filename
		loc.PhysicalLocation.Region.StartLine = pos.Line
		loc.PhysicalLocation.Region.StartColumn = pos.Column
		res.Locations = append(res.Locations, loc)
		run.Results = append(run.Results, res)
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{run},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	return enc.Encode(log)
}
