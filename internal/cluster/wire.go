package cluster

import (
	"fmt"

	"insitu/internal/core"
	"insitu/internal/framebuffer"
)

// Message tags on the router<->worker links. The composite exchange owns
// 1000..~5200 and the comm collectives own the negative range; cluster
// control traffic lives far above both.
const (
	tagJob       = 900001 // router -> worker: render one shard
	tagResult    = 900004 // group leader -> router: finished frame
	tagHeartbeat = 900005 // worker -> router: liveness beacon
	tagFrameDone = 900006 // worker -> router: attempt finished or abandoned
	tagEvict     = 900007 // router -> worker: evicted; drop shard caches
)

// wireJob is the render order broadcast to every member of a sharded
// frame. Members lists the world ranks in shard order: member i renders
// shard i of the Shards-wide domain decomposition and becomes rank i of
// the job's sub-communicator.
type wireJob struct {
	JobID      uint64
	Backend    string
	Sim        string
	Arch       string
	N          int
	Width      int
	Height     int
	Shards     int
	RTWorkload int
	Azimuth    float64
	Zoom       float64
	Members    []int
	// DeadlineUnixNanos is the attempt's absolute abort deadline: every
	// member abandons the frame's collectives past it (0 = none). The
	// JobID doubles as the attempt's comm epoch.
	DeadlineUnixNanos int64 `json:",omitempty"`
}

// wireResult is the header of a finished frame (or the combined error of
// a failed one). The composited RGBA planes ride behind it in the same
// message as raw float words.
type wireResult struct {
	JobID uint64
	Err   string `json:",omitempty"`
	// Retryable marks failures caused by the transport (a dead or stalled
	// peer aborted the attempt), not by the frame itself: the router may
	// re-place and re-dispatch. Application errors are never retryable.
	Retryable            bool `json:",omitempty"`
	W, H                 int
	In                   core.Inputs
	BuildSeconds         float64
	RenderSeconds        float64 // slowest rank, the paper's max(T_local)
	CompositeSeconds     float64
	RankRenderSeconds    []float64
	RankCompositeSeconds []float64
}

// wireDone is a member's completion note for one attempt, sent whether
// the attempt succeeded, failed, or was abandoned. The router's drain
// barrier counts these before re-dispatching a failed frame (a member
// that has noted is provably out of the old exchange), and StuckOn — the
// world rank the member was blocked on when it aborted, -1 if none —
// feeds the blame counters that evict wedged-but-beaconing ranks.
type wireDone struct {
	JobID   uint64
	Rank    int
	StuckOn int
}

// encodeResult packs a result header and, when the frame succeeded, the
// image's color planes into one message.
func encodeResult(res *wireResult, img *framebuffer.Image) ([]float32, error) {
	head, err := packJSON(res)
	if err != nil {
		return nil, err
	}
	if img == nil {
		return head, nil
	}
	out := make([]float32, 0, len(head)+len(img.Color))
	out = append(out, head...)
	out = append(out, img.Color...)
	return out, nil
}

// decodeResult unpacks a result message, reconstructing the image (nil
// for failed frames). The header's dimensions are checked against the
// words that follow it, by division so that no product of untrusted
// sizes can overflow, before anything is allocated.
func decodeResult(data []float32) (*wireResult, *framebuffer.Image, error) {
	var res wireResult
	rest, err := unpackJSON(data, &res)
	if err != nil {
		return nil, nil, err
	}
	if res.Err != "" {
		return &res, nil, nil
	}
	px := len(rest) / 4
	if res.W <= 0 || res.H <= 0 || len(rest)%4 != 0 || px%res.W != 0 || px/res.W != res.H {
		return nil, nil, fmt.Errorf("cluster: result carries %d color words for %dx%d", len(rest), res.W, res.H)
	}
	img := framebuffer.NewImage(res.W, res.H)
	copy(img.Color, rest)
	return &res, img, nil
}
