package core

import (
	"math"
)

// Config is a user-facing rendering configuration: the way a simulation
// scientist thinks about a rendering task (paper §5.8) — per-task data
// size, task count, image resolution, and technique.
type Config struct {
	// N is the per-task data size (an N^3 block of cells).
	N int
	// Tasks is the MPI task count (weak scaling: total cells = Tasks*N^3).
	Tasks int
	// Width and Height are the image resolution.
	Width, Height int
	// Renderer selects the technique.
	Renderer Renderer
}

// Mapping converts configurations to model inputs. The functional forms
// follow the paper; the two constants are calibrated once per study
// corpus rather than hard-coded (the paper's 55% screen fill and
// 373-sample baseline are properties of its camera setup).
type Mapping struct {
	// FillFraction is the fraction of image pixels covered by the data
	// for a single task (paper: 0.55).
	FillFraction float64
	// SPRBase is the single-task samples-per-ray baseline (paper: 373).
	SPRBase float64
}

// DefaultMapping mirrors the paper's constants.
func DefaultMapping() Mapping { return Mapping{FillFraction: 0.55, SPRBase: 373} }

// CalibrateMapping estimates the two constants from measured samples:
// FillFraction from surface renders (spec.Surface), SPRBase from
// structured volume renders, each inverted through the paper's
// task-count scaling law.
func CalibrateMapping(samples []Sample) Mapping {
	mp := DefaultMapping()
	var fillSum, fillN, sprSum, sprN float64
	for _, s := range samples {
		scale := math.Cbrt(float64(max(s.In.Tasks, 1)))
		if spec, _ := LookupRenderer(s.Renderer); spec.Surface && s.In.Pixels > 0 && s.In.AP > 0 {
			fillSum += s.In.AP * scale / s.In.Pixels
			fillN++
		}
		if s.Renderer == Volume && s.In.SPR > 0 {
			sprSum += s.In.SPR * scale
			sprN++
		}
	}
	if fillN > 0 {
		mp.FillFraction = fillSum / fillN
	}
	if sprN > 0 {
		mp.SPRBase = sprSum / sprN
	}
	return mp
}

// Map converts a configuration to model inputs using the paper's
// formulas:
//
//	O  = 12*N^2 (external-face surfaces) or N^3 (volumes),
//	     unless the renderer's spec overrides Objects
//	AP = fill * Pixels / Tasks^(1/3)
//	VO = min(AP, O)            (surface techniques)
//	VO*PPT = 4*AP  =>  PPT = 4*AP/VO
//	SPR = SPRBase / Tasks^(1/3) (volume techniques)
//	CS  = N
//
// The surface-vs-volume branch follows the renderer's spec; an unknown
// renderer maps as a surface technique (the prediction itself will fail
// at model lookup with a clear error). All coefficients are positive, so
// conservative (over-) estimates of the inputs yield conservative time
// predictions.
func (mp Mapping) Map(cfg Config) Inputs {
	tasks := max(cfg.Tasks, 1)
	scale := math.Cbrt(float64(tasks))
	pixels := float64(cfg.Width * cfg.Height)
	n := float64(cfg.N)
	in := Inputs{
		Pixels: pixels,
		Tasks:  tasks,
		CS:     n,
	}
	in.AP = mp.FillFraction * pixels / scale
	in.AvgAP = in.AP
	spec, known := LookupRenderer(cfg.Renderer)
	surface := !known || spec.Surface
	if surface {
		in.O = 12 * n * n
	} else {
		in.O = n * n * n
	}
	if known && spec.Objects != nil {
		in.O = spec.Objects(n)
	}
	if !surface {
		in.SPR = mp.SPRBase / scale
		return in
	}
	in.VO = math.Min(in.AP, in.O)
	if in.VO > 0 {
		in.PPT = 4 * in.AP / in.VO
	}
	return in
}
