package main

import (
	"fmt"
	"path/filepath"

	"insitu/internal/study"
)

func init() {
	register("export", "publish fitted models as an advisor registry snapshot", exportRegistry)
}

// exportRegistry fits the study corpus and writes the versioned registry
// snapshot renderd serves from, closing the loop between the paper's
// one-shot reproduction and the online feasibility service.
func exportRegistry(e *env) error {
	rows, err := e.corpus.get(e)
	if err != nil {
		return err
	}
	path := filepath.Join(e.outDir, "models.json")
	snap, err := study.ExportModels(rows, "repro", path)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d models", path, len(snap.Models))
	if snap.Compositing != nil {
		fmt.Fprintf(stdout, " + compositing")
	}
	fmt.Fprintf(stdout, ", mapping fill=%.3f sprBase=%.1f)\n",
		snap.Mapping.FillFraction, snap.Mapping.SPRBase)
	fmt.Fprintf(stdout, "serve it with: renderd -registry %s\n", path)
	return nil
}
