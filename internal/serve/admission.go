package serve

import (
	"errors"
	"fmt"

	"insitu/internal/advisor"
	"insitu/internal/core"
)

// ErrBadRequest tags client-side request errors so HTTP layers can map
// them to 400 with errors.Is instead of matching text.
var ErrBadRequest = errors.New("serve: bad request")

func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}

// RejectionError is the model-gated "no": even the most degraded quality
// the ladder reaches is predicted to blow the deadline. It carries the
// predictions so the refusal is actionable — the client learns what the
// frame would cost as asked and at the floor quality.
type RejectionError struct {
	// DeadlineSeconds is the requested per-frame budget.
	DeadlineSeconds float64 `json:"deadline_seconds"`
	// PredictedSeconds is the predicted cost at the requested quality.
	PredictedSeconds float64 `json:"predicted_seconds"`
	// FloorPredictedSeconds is the predicted cost at the most degraded
	// quality the ladder reached (the best the service could offer).
	FloorPredictedSeconds float64 `json:"floor_predicted_seconds"`
	// Steps is how many degradation steps were tried before giving up.
	Steps int `json:"degrade_steps"`
}

func (e *RejectionError) Error() string {
	return fmt.Sprintf("serve: infeasible: predicted %.4gs (%.4gs after %d degrade steps) exceeds %.4gs deadline",
		e.PredictedSeconds, e.FloorPredictedSeconds, e.Steps, e.DeadlineSeconds)
}

// quality is the set of knobs the degradation ladder turns: image
// resolution, per-task data size, shard count, and (for the ray tracer)
// pipeline depth. It is the part of a frame's identity that admission
// may change.
type quality struct {
	W, H int
	N    int
	// RTWorkload is 0 for the backend's fitted baseline; 1 is the
	// primary-visibility-only floor the ladder degrades to.
	RTWorkload int
	// Shards is the cluster decomposition width (1 = the local
	// single-process path). Part of quality — and so of the admission
	// memo and frame-cache keys — because a sharded frame renders a
	// different dataset and pays the compositing term: a single-node
	// prediction or cached frame must never answer a cluster request, or
	// vice versa.
	Shards int
}

// admitKey memoizes admission decisions. Camera and simulation are
// absent on purpose — the cost model sees only data size and resolution
// — and the registry generation is included so decisions never outlive
// the models they were gated by.
type admitKey struct {
	arch          string
	backend       core.Renderer
	n, w, h       int
	shards        int
	deadlineNanos int64
	gen           uint64
}

// deadlineNanos quantizes a millisecond deadline for the admission
// memo. A positive deadline must never quantize to 0 — that is the
// "no deadline" key, and an absurdly tight request sharing it would be
// answered with the unbounded admission.
func deadlineNanos(deadlineMillis float64) int64 {
	if deadlineMillis <= 0 {
		return 0
	}
	n := int64(deadlineMillis * 1e6)
	if n < 1 {
		n = 1
	}
	return n
}

// decision is one memoized admission outcome.
type decision struct {
	ok bool
	q  quality
	// predicted is the modeled per-frame seconds at q (after any
	// workload derating); requestedPredicted is the cost as asked.
	predicted          float64
	requestedPredicted float64
	// predictedComposite is the fitted compositing model's share of
	// predicted (the paper's Tc); 0 for unsharded frames.
	predictedComposite float64
	steps              int
	degraded           bool
}

// rejection is the refusal of a request this decision found infeasible.
func (d decision) rejection(req *FrameRequest) error {
	return &RejectionError{
		DeadlineSeconds:       req.DeadlineMillis / 1e3,
		PredictedSeconds:      d.requestedPredicted,
		FloorPredictedSeconds: d.predicted,
		Steps:                 d.steps,
	}
}

// workload1Derate scales the fitted shaded-workload prediction when the
// ladder drops the ray tracer to primary visibility only. Workload is
// not a model input (the models are fitted at the paper's Workload2),
// so the serving layer derates the prediction by this conservative
// constant instead of pretending the model knows; frames rendered off
// the fitted workload are likewise excluded from calibration feedback.
const workload1Derate = 0.5

// maxDegradeSteps bounds the ladder; every step strictly shrinks a
// floored quantity, so this is a backstop, not the terminator.
const maxDegradeSteps = 32

// decide runs model-gated admission for a normalized request: predict
// the frame's cost, and if it exceeds the deadline, walk the
// degradation ladder — halve the resolution toward the floor, cap the
// geometry via the advisor's max-triangles inversion (surface
// techniques) or halve N (volumes), and finally drop the ray tracing
// workload — until the prediction fits or every knob is at its floor.
func (s *Server) decide(req *FrameRequest, surface bool) (decision, error) {
	deadline := req.DeadlineMillis / 1e3
	requested := quality{W: req.Width, H: req.Height, N: req.N, Shards: max(req.Shards, 1)}
	q := requested
	d := decision{q: q}
	p, comp, err := s.predictQuality(req.Arch, req.Backend, q)
	if err != nil {
		return decision{}, err
	}
	d.requestedPredicted = p
	for step := 0; ; step++ {
		if deadline <= 0 || p <= deadline {
			d.ok = true
			d.q = q
			d.predicted = p
			d.predictedComposite = comp
			d.steps = step
			d.degraded = q != requested
			return d, nil
		}
		if step >= maxDegradeSteps {
			break
		}
		next, changed := s.degradeOnce(req, q, surface, deadline)
		if !changed {
			break
		}
		q = next
		if p, comp, err = s.predictQuality(req.Arch, req.Backend, q); err != nil {
			return decision{}, err
		}
		d.steps = step + 1
	}
	d.ok = false
	d.q = q
	d.predicted = p
	d.predictedComposite = comp
	return d, nil
}

// degradeOnce turns the highest-value knob one notch: resolution first
// (quadratic cost relief, mildest visual change at a distance), then
// geometry, then ray tracing workload as the last resort. Returns the
// new quality and whether anything changed (false = ladder exhausted).
func (s *Server) degradeOnce(req *FrameRequest, q quality, surface bool, deadline float64) (quality, bool) {
	minW := min(minDegradeSize, req.Width)
	minH := min(minDegradeSize, req.Height)
	// Sharded frames first trade shard count against resolution by
	// predicted totals: halving shards sheds compositing cost and shrinks
	// the weak-scaled dataset, halving resolution sheds per-pixel cost —
	// the model decides which buys more. Geometry and workload rungs wait
	// until the frame is down to one shard.
	if q.Shards > 1 {
		byRes := q
		byRes.W = max(q.W/2, minW)
		byRes.H = max(q.H/2, minH)
		resPossible := byRes != q
		byShards := q
		byShards.Shards = max(q.Shards/2, 1)
		switch {
		case !resPossible:
			return byShards, true
		default:
			pRes, _, errRes := s.predictQuality(req.Arch, req.Backend, byRes)
			pShards, _, errShards := s.predictQuality(req.Arch, req.Backend, byShards)
			if errRes != nil || errShards != nil || pRes <= pShards {
				return byRes, true
			}
			return byShards, true
		}
	}
	if q.W > minW || q.H > minH {
		q.W = max(q.W/2, minW)
		q.H = max(q.H/2, minH)
		return q, true
	}
	minN := min(minDegradeN, req.N)
	if q.N > minN {
		if surface {
			// Invert the model: the largest geometry that fits the
			// remaining budget at this resolution, in one jump.
			budget := deadline
			if q.RTWorkload == 1 {
				budget /= workload1Derate
			}
			mt, err := s.engine.MaxTriangles(advisor.MaxTrianglesRequest{
				Arch: req.Arch, Renderer: string(req.Backend), Tasks: 1,
				ImageSize:             max(q.W, q.H),
				PerImageBudgetSeconds: budget,
				Renderings:            runnerReuse,
			})
			if err == nil && mt.N >= minN && mt.N < q.N {
				q.N = mt.N
				return q, true
			}
		}
		q.N = max(q.N/2, minN)
		return q, true
	}
	if req.Backend == core.RayTrace && q.RTWorkload == 0 {
		q.RTWorkload = 1
		return q, true
	}
	return q, false
}

// predictQuality asks the advisor engine what a frame at quality q
// costs: per-image render plus compositing plus the build amortized
// over runnerReuse renderings of the cached scene, with the serving-side workload
// derate applied. The second return is the compositing model's share
// (the paper's Tc) — charged whenever the frame is sharded, 0 otherwise.
func (s *Server) predictQuality(arch string, backend core.Renderer, q quality) (float64, float64, error) {
	resp, err := s.engine.Predict(advisor.PredictRequest{
		Arch: arch, Renderer: string(backend),
		N: q.N, Tasks: max(q.Shards, 1), Width: q.W, Height: q.H,
		Renderings: runnerReuse,
	})
	if err != nil {
		return 0, 0, err
	}
	p := resp.PerImageSeconds
	comp := resp.CompositeSeconds
	if q.RTWorkload == 1 {
		p *= workload1Derate
	}
	return p, comp, nil
}
