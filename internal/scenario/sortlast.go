package scenario

import (
	"errors"
	"slices"
	"strings"

	"insitu/internal/comm"
	"insitu/internal/composite"
	"insitu/internal/core"
	"insitu/internal/device"
	"insitu/internal/framebuffer"
	"insitu/internal/render"
	"insitu/internal/vecmath"
)

// The sort-last frame protocol. The study the models are fitted on, the
// in situ pipeline and the serving fleet all run one rank's share of a
// multi-task frame through the steps below, in this order, so the fleet
// and the pipeline charge exactly the per-rank work that was measured:
//
//  1. ReduceView: global bounds and scalar range, hence one camera and
//     one color map on every rank;
//  2. Agree on the local setup and render outcome;
//  3. BlendOrder: the visibility order blend compositing needs;
//  4. Composite, then Agree on its outcome;
//  5. Max over the frame's timings and ReduceInputs over its model
//     inputs.
//
// Every step runs its collectives on every rank even after a rank-local
// failure — a failed rank contributes neutral values and its failure
// flag — so a failure on one rank can never leave its peers blocked in
// an exchange it skipped. A nil or size-1 communicator makes every step
// a local no-op, so serial callers run the same code.

// Group is one rank's handle on the sort-last frame protocol.
type Group struct{ c *comm.Comm }

// NewGroup runs the protocol over c; nil means a serial run.
func NewGroup(c *comm.Comm) Group { return Group{c} }

func (g Group) solo() bool { return g.c == nil || g.c.Size() == 1 }

// errPeerFailed is what Agree returns on a rank other than 0 that
// succeeded when another rank failed.
var errPeerFailed = errors.New("scenario: a peer rank failed")

// neutralCoord is what a failed rank contributes to the bounds and
// scalar-range min/max reductions: finite (the comm reduction encoding
// cannot carry Inf) and dominated by any real coordinate.
const neutralCoord = 1e30

// View is the globally consistent view of a frame: the union of every
// rank's block bounds and scalar range.
type View struct {
	Bounds           vecmath.AABB
	FieldLo, FieldHi float64
}

// ReduceView reduces the ranks' block bounds and scalar ranges into the
// frame's View. sd is nil on a rank whose local setup failed.
func (g Group) ReduceView(sd *ShardData) View {
	v := View{
		Bounds: vecmath.AABB{
			Min: vecmath.V(neutralCoord, neutralCoord, neutralCoord),
			Max: vecmath.V(-neutralCoord, -neutralCoord, -neutralCoord),
		},
		FieldLo: neutralCoord, FieldHi: -neutralCoord,
	}
	if sd != nil {
		v = View{sd.LocalBounds, sd.FieldLo, sd.FieldHi}
	}
	if g.solo() {
		return v
	}
	b := &v.Bounds
	b.Min.X = g.c.AllReduceMin(b.Min.X)
	b.Min.Y = g.c.AllReduceMin(b.Min.Y)
	b.Min.Z = g.c.AllReduceMin(b.Min.Z)
	b.Max.X = g.c.AllReduceMax(b.Max.X)
	b.Max.Y = g.c.AllReduceMax(b.Max.Y)
	b.Max.Z = g.c.AllReduceMax(b.Max.Z)
	v.FieldLo = g.c.AllReduceMin(v.FieldLo)
	v.FieldHi = g.c.AllReduceMax(v.FieldHi)
	return v
}

// Scene describes the rank's block under the view's global scalar range.
func (v View) Scene(dev *device.Device, sd *ShardData, cam render.Camera, width, height int) *Scene {
	sc := NewScene(dev, sd.Mesh, sd.Field, sd.Values, cam, width, height)
	sc.FieldLo, sc.FieldHi = v.FieldLo, v.FieldHi
	return sc
}

// Agree is the two-phase error barrier: every rank reduces a failure
// flag before any rank acts on its own error, so the group fails as a
// unit or proceeds as a unit. It returns nil when every rank succeeded.
// Otherwise every rank returns an error: rank 0 the failed ranks'
// distinct messages joined in rank order, every other rank its own error
// or one saying a peer failed.
func (g Group) Agree(err error) error {
	if g.solo() {
		return err
	}
	flag := 0.0
	if err != nil {
		flag = 1
	}
	if g.c.AllReduceMax(flag) == 0 {
		return nil
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	parts := g.c.Gather(0, comm.PackBytes([]byte(msg)))
	if g.c.Rank() != 0 {
		if err == nil {
			err = errPeerFailed
		}
		return err
	}
	var msgs []string
	for _, p := range parts {
		b, _, uerr := comm.UnpackBytes(p)
		if uerr == nil && len(b) > 0 && !slices.Contains(msgs, string(b)) {
			msgs = append(msgs, string(b))
		}
	}
	if len(msgs) == 0 {
		return errors.New("scenario: frame failed with no rank error")
	}
	return errors.New(strings.Join(msgs, "; "))
}

// BlendOrder returns the visibility order blend compositing needs: the
// ranks front to back by the distance from the camera to their block
// centers, decided at rank 0 and broadcast so every rank composites in
// the same order. It is nil for any other operator and for a solo group.
func (g Group) BlendOrder(op composite.Op, local vecmath.AABB, cam render.Camera) []int {
	if op != composite.BlendOp || g.solo() {
		return nil
	}
	depth := local.Center().Sub(cam.Position).Length()
	parts := g.c.Gather(0, []float32{float32(depth)})
	orderF := make([]float32, g.c.Size())
	if parts != nil {
		depths := make([]float64, len(parts))
		for r, p := range parts {
			depths[r] = float64(p[0])
		}
		for i, r := range composite.VisibilityOrder(depths) {
			orderF[i] = float32(r)
		}
	}
	orderF = g.c.Bcast(0, orderF)
	order := make([]int, len(orderF))
	for i, f := range orderF {
		order[i] = int(f)
	}
	return order
}

// Composite merges the ranks' partial images sort-last with comp,
// returning the frame at rank 0 (nil elsewhere) and this rank's exchange
// seconds. A solo group's frame is img itself. The caller agrees on the
// returned error before acting on it.
//
//insitu:arena
func (g Group) Composite(comp *composite.Compositor, img *framebuffer.Image, op composite.Op, order []int) (*framebuffer.Image, float64, error) {
	if g.solo() {
		return img, 0, nil
	}
	out, st, err := comp.Composite(g.c, img, op, order)
	sec := 0.0
	if st != nil {
		sec = st.Elapsed.Seconds()
	}
	return out, sec, err
}

// Max is v's maximum over the ranks: a frame is as slow as its slowest
// rank.
func (g Group) Max(v float64) float64 {
	if g.solo() {
		return v
	}
	return g.c.AllReduceMax(v)
}

// ReduceInputs reduces one rank's model inputs and build time to the
// frame's. The per-task model terms are the slowest task's, so every
// workload input (unset ones stay zero) and the build time reduce by
// max; AvgAP, the compositing model's term, is the mean of the ranks'
// active pixels.
func (g Group) ReduceInputs(in core.Inputs, build float64) (core.Inputs, float64) {
	if g.solo() {
		in.AvgAP = in.AP
		return in, build
	}
	in.AvgAP = g.c.AllReduceSum(in.AP) / float64(g.c.Size())
	in.AP = g.c.AllReduceMax(in.AP)
	in.O = g.c.AllReduceMax(in.O)
	in.VO = g.c.AllReduceMax(in.VO)
	in.PPT = g.c.AllReduceMax(in.PPT)
	in.SPR = g.c.AllReduceMax(in.SPR)
	in.CS = g.c.AllReduceMax(in.CS)
	return in, g.c.AllReduceMax(build)
}

// Gather collects one per-rank measurement at rank 0 in rank order (nil
// elsewhere), carried at float32 precision.
func (g Group) Gather(v float64) []float64 {
	if g.solo() {
		return []float64{float64(float32(v))}
	}
	parts := g.c.Gather(0, []float32{float32(v)})
	if parts == nil {
		return nil
	}
	out := make([]float64, len(parts))
	for r, p := range parts {
		out[r] = float64(p[0])
	}
	return out
}
