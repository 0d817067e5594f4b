package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// manifest is BENCHMARK.json, the contract the driver checks this program
// against; --list and --selfcheck read names and bounds from it rather than
// keeping a second copy.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// printList prints the workload and metric names later issues cite.
func printList(w io.Writer, m *manifest) {
	for _, wl := range m.Workloads {
		fmt.Fprintf(w, "workload   %-28s %s\n", wl.Name, wl.Why)
	}
	for _, e := range m.EndToEnd {
		fmt.Fprintf(w, "end_to_end %-28s %-6s %-6s bound %.2f\n", e.Name, e.Unit, e.Better, e.Bound)
	}
	for _, e := range m.PerLayer {
		fmt.Fprintf(w, "per_layer  %-28s %-6s %s\n", e.Name, e.Unit, e.Better)
	}
}
