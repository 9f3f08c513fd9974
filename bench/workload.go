package main

import (
	"fmt"
	"math"
	"net/url"
	"strconv"
	"time"
)

// request is one generated frame request. Generators are pure functions
// of (seed, i): the server sees only what they produce.
type request struct {
	Index   int
	Class   string // latency class: "frame", "tight"…"impossible", "shards1"/"shards2"
	Session int    // session index for session_orbit, -1 otherwise
	Backend string
	Sim     string
	N       int
	Size    int
	AzMilli int // azimuth in millidegrees, the frame cache's own quantization
	ZoomMil int // zoom × 1000
	// DeadlineMS is sent as deadline_ms (0 = none). BudgetMS is what the
	// client holds the answer to: the deadline when there is one, the
	// workload's interactive budget otherwise.
	DeadlineMS float64
	BudgetMS   float64
	Shards     int
	// Due is the open-loop send time as an offset from the window start.
	Due time.Duration
	// Feasible is false for the impossible-deadline class, which must be
	// refused with 422 and counts toward no ratio.
	Feasible bool
	// Primary marks the class the workload's latency median is over.
	Primary bool
}

// query renders the GET /v1/frame query string.
func (r *request) query() string {
	q := url.Values{}
	q.Set("backend", r.Backend)
	q.Set("sim", r.Sim)
	q.Set("n", strconv.Itoa(r.N))
	q.Set("size", strconv.Itoa(r.Size))
	q.Set("azimuth", milli(r.AzMilli))
	q.Set("zoom", milli(r.ZoomMil))
	if r.DeadlineMS > 0 {
		q.Set("deadline_ms", strconv.FormatFloat(r.DeadlineMS, 'g', -1, 64))
	}
	if r.Shards > 1 {
		q.Set("shards", strconv.Itoa(r.Shards))
	}
	return q.Encode()
}

// key identifies responses that must be byte-identical: everything the
// frame cache keys on.
func (r *request) key() string {
	return fmt.Sprintf("%s/%s/%d/%d/%d/%d/%g/%d/%d", r.Backend, r.Sim, r.N, r.Size, r.AzMilli, r.ZoomMil, r.DeadlineMS, r.Shards, r.Session)
}

func milli(m int) string { return strconv.FormatFloat(float64(m)/1e3, 'f', 3, 64) }

// mix is splitmix64 over (seed, stream, i): independent, reproducible
// draws without carrying generator state between requests.
func mix(seed uint64, stream, i int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(stream)*0xD1B54A32D192ED03 + uint64(i)*0x8CB92BA72F3D8DD7 + 0x2545F4914F6CDD1D
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// unit maps a draw to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

const (
	fullTurn = 360000 // millidegrees
	// azStride is coprime to fullTurn, so i*azStride mod fullTurn visits
	// every millidegree once before repeating: 360000 unique poses.
	azStride = 137507

	replayPoses = 128 // < the 256-entry frame cache
	zipfS       = 1.1

	sessionCount  = 2
	sessionStride = 7003 // millidegrees per frame; coprime to fullTurn
	// thinkTime is the sessions' pause between frames. At 40 ms and 128²
	// the server renders speculatively a little over half the time, which
	// keeps this VM's vCPUs awake: at 80 ms (or 96² frames) they idle and
	// the median hit becomes a 2–3 ms vCPU wake-up, not renderd's hit path.
	thinkTime = 40 * time.Millisecond

	// deadlineRate is deadline_mix's fixed open-loop arrival rate, about
	// 27 % of the mix's closed-loop capacity on the reference host (see
	// README.md for why so low). It is never tuned at run time.
	deadlineRate = 24.0

	// openLoopConns is how many connections carry the open loop: enough
	// that a due request never waits in the client for a free one, so the
	// queue builds in the server, where the deadline scheduler orders it.
	openLoopConns = 8

	// Interactive budgets (ms) for requests that carry no deadline: what
	// deadline_met_ratio holds them to. Each is 1.5–2.5x the workload's
	// p99 on the reference host, so the ratio is 1 or nearly until the
	// tail roughly doubles.
	orbitBudgetMS   = 200
	replayBudgetMS  = 2
	sessionBudgetMS = 10
	shardBudgetMS   = 40
)

type sceneKind struct{ backend, sim string }

// orbitKinds: 5 runners, under the 8-entry runner cache.
var orbitKinds = []sceneKind{
	{"raytracer", "kripke"}, {"rasterizer", "kripke"}, {"volume", "kripke"},
	{"raytracer", "lulesh"}, {"rasterizer", "lulesh"},
}

func uniqueAz(seed uint64, stream, i int) int {
	off := int(mix(seed, stream, -1) % fullTurn)
	return (off + i*azStride) % fullTurn
}

func genOrbitMiss(seed uint64, i int) request {
	k := orbitKinds[i%len(orbitKinds)]
	return request{
		Index: i, Class: "frame", Session: -1,
		Backend: k.backend, Sim: k.sim, N: 16, Size: 256,
		AzMilli:  uniqueAz(seed, 1, i),
		ZoomMil:  900 + int(mix(seed, 2, i)%401), // 0.9 … 1.3
		BudgetMS: orbitBudgetMS, Shards: 1, Feasible: true, Primary: true,
	}
}

// replayPose is pose k of the seeded 128-pose set.
func replayPose(seed uint64, k int) request {
	off := int(mix(seed, 3, -1) % fullTurn)
	return request{
		Index: k, Class: "frame", Session: -1,
		Backend: "raytracer", Sim: "kripke", N: 16, Size: 256,
		AzMilli: (off + k*(fullTurn/replayPoses)) % fullTurn, ZoomMil: 1000,
		BudgetMS: replayBudgetMS, Shards: 1, Feasible: true, Primary: true,
	}
}

func replayPoseSet(seed uint64) []request {
	poses := make([]request, replayPoses)
	for k := range poses {
		poses[k] = replayPose(seed, k)
	}
	return poses
}

// zipfCDF[k] = P(rank <= k) for Zipf(zipfS) over replayPoses ranks.
var zipfCDF = func() []float64 {
	cdf := make([]float64, replayPoses)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), zipfS)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}()

func genReplayHit(seed uint64, i int) request {
	u := unit(mix(seed, 4, i))
	k := 0
	for k < replayPoses-1 && zipfCDF[k] < u {
		k++
	}
	r := replayPose(seed, k)
	r.Index = i
	return r
}

// Deadline classes are defined by ladder depth under bench/models.json,
// not by one number of milliseconds: the registry predicts the two
// scenes almost 5x apart, so a shared deadline could not put both on
// the same rung. Each value sits just under the prediction of the rung
// above — the widest margin its rung allows (README.md lists the
// predictions they were read from).
type deadlineClass struct {
	name        string
	rtMS, volMS float64 // raytracer/lulesh, volume/kripke; both n=24 256²
	rtN, volN   int     // cards per scene in the 40-card deck
}

// The deck holds the classes at 45/25/20/10 %. Inside each class the
// volume scene has about twice the raytracer's cards: the two scenes'
// frames at one rung differ in cost, so an even split would put every
// class median on the gap between two clusters.
var deadlineClasses = []deadlineClass{
	{"tight", 5.4, 20.5, 6, 12},        // 2 steps: 64²
	{"medium", 17, 80, 3, 7},           // 1 step: 128²
	{"loose", 60, 150, 3, 5},           // 0 steps: 256²
	{"impossible", 0.001, 0.001, 2, 2}, // must answer 422
}

// deadlineDeck is one block of the mix, so class shares do not wander
// between seeds. The latency median is over the tight class alone: it
// is half the feasible requests, so the median of all classes together
// would sit between the tight and the medium clusters.
var deadlineDeck = func() []request {
	var deck []request
	card := func(c deadlineClass, backend, sim string, ms float64) request {
		feasible := c.name != "impossible"
		return request{Class: c.name, Session: -1, Backend: backend, Sim: sim, N: 24, Size: 256,
			ZoomMil: 1000, DeadlineMS: ms, BudgetMS: ms, Shards: 1, Feasible: feasible, Primary: c.name == "tight"}
	}
	for _, c := range deadlineClasses {
		for i := 0; i < c.rtN; i++ {
			deck = append(deck, card(c, "raytracer", "lulesh", c.rtMS))
		}
		for i := 0; i < c.volN; i++ {
			deck = append(deck, card(c, "volume", "kripke", c.volMS))
		}
	}
	return deck
}()

// genDeadlineMix draws card i: block i/40 is the deck under a seeded
// Fisher–Yates shuffle. Due is filled in by deadlineStream.
func genDeadlineMix(seed uint64, i int) request {
	n := len(deadlineDeck)
	block, pos := i/n, i%n
	perm := make([]int, n)
	for j := range perm {
		perm[j] = j
	}
	for j := n - 1; j > 0; j-- {
		k := int(mix(seed, 5, block*n+j) % uint64(j+1))
		perm[j], perm[k] = perm[k], perm[j]
	}
	r := deadlineDeck[perm[pos]]
	r.Index = i
	r.AzMilli = uniqueAz(seed, 6, i)
	return r
}

// deadlineStream is the open-loop schedule for a window: rate × window
// arrivals, rounded down to whole decks so every run offers the same
// requests of every class, whose gaps are seeded exponentials scaled to
// fill the window — a Poisson process conditioned on its count.
func deadlineStream(seed uint64, first int, window time.Duration) []request {
	n := int(deadlineRate*window.Seconds()) / len(deadlineDeck) * len(deadlineDeck)
	gaps := make([]float64, n+1)
	total := 0.0
	for j := range gaps {
		gaps[j] = -math.Log(1 - unit(mix(seed, 7, first+j)))
		total += gaps[j]
	}
	out := make([]request, n)
	at := 0.0
	for j := range out {
		at += gaps[j]
		out[j] = genDeadlineMix(seed, first+j)
		out[j].Due = time.Duration(at / total * float64(window))
	}
	return out
}

// genSessionOrbit is frame i/2 of session i%2. The sessions differ in
// zoom, so they share no frames; the stride never revisits a pose.
func genSessionOrbit(seed uint64, i int) request {
	s, frame := i%sessionCount, i/sessionCount
	start := int(mix(seed, 8, s) % fullTurn)
	return request{
		Index: i, Class: "frame", Session: s,
		Backend: "raytracer", Sim: "kripke", N: 16, Size: 128,
		AzMilli: (start + frame*sessionStride) % fullTurn, ZoomMil: 1000 + 100*s,
		BudgetMS: sessionBudgetMS, Shards: 1, Feasible: true, Primary: true,
	}
}

// genShardPair alternates shards=1 / shards=2 on one server, so both
// classes see the same seconds of host weather.
func genShardPair(seed uint64, i int) request {
	shards := 1 + i%2
	return request{
		Index: i, Class: "shards" + strconv.Itoa(shards), Session: -1,
		Backend: "volume", Sim: "kripke", N: 16, Size: 128,
		AzMilli: uniqueAz(seed, 9, i), ZoomMil: 1000,
		BudgetMS: shardBudgetMS, Shards: shards, Feasible: true, Primary: shards == 2,
	}
}

type shape int

const (
	closedLoop shape = iota
	openLoop
	sessionLoop
)

// workload is one traffic mix and the server it runs against. Why each
// exists is recorded beside its name in BENCHMARK.json and README.md.
type workload struct {
	name  string
	shape shape
	// clients is the connection count; 0 means min(nproc, 4).
	clients int
	flags   []string // renderd flags beyond -registry/-addr
	gen     func(seed uint64, i int) request
	// warm is how many stream requests the warm-up sends (closed loop)
	// before the window; the window continues the stream after them.
	warm int
	// prewarm, when set, lists requests to serve before even those: the
	// pose set a hit workload replays. minHitShare is then the share of
	// window answers that must be cache hits for the run to count.
	prewarm     func(seed uint64) []request
	minHitShare float64
}

var workloads = []workload{
	{
		name:  "orbit_miss",
		shape: closedLoop, gen: genOrbitMiss, warm: 20,
	},
	{
		name:  "replay_hit",
		shape: closedLoop, gen: genReplayHit, warm: 256,
		prewarm: replayPoseSet, minHitShare: 0.999,
	},
	{
		name:  "deadline_mix",
		shape: openLoop, clients: openLoopConns, gen: genDeadlineMix, warm: 40,
		flags: []string{"-calibrate=false"},
	},
	{
		name:  "session_orbit",
		shape: sessionLoop, clients: sessionCount, gen: genSessionOrbit, warm: 16,
		flags: []string{"-calibrate=false"},
	},
	{
		name:  "shard_pair",
		shape: closedLoop, clients: 1, gen: genShardPair, warm: 12,
		flags: []string{"-cluster", "2", "-calibrate=false"},
	},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}
