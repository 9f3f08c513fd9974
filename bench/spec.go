package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark itself
// reads. The file is the one list of metric names, units, directions and
// bounds: the traced run reports exactly its per_layer entries and --aa
// judges by its end_to_end bounds.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*benchmarkSpec, error) {
	path := filepath.Join(root, "BENCHMARK.json")
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}
