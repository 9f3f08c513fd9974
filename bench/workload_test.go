package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
	"time"
)

func TestStreamDigestIsAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, c := streamDigest(w, 1, 500), streamDigest(w, 1, 500), streamDigest(w, 2, 500)
		if a != b {
			t.Errorf("%s: seed 1 gave two different streams", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w.name)
		}
	}
}

// Poses must differ at the frame cache's own quantization (millidegrees
// of azimuth, thousandths of zoom) or the "miss" workloads would hit.
func TestMissWorkloadsNeverRepeatAPose(t *testing.T) {
	for _, name := range []string{"orbit_miss", "deadline_mix", "session_orbit", "shard_pair"} {
		w, _ := findWorkload(name)
		seen := map[string]bool{}
		for i := 0; i < 20000; i++ {
			r := w.gen(7, i)
			if r.AzMilli < 0 || r.AzMilli >= fullTurn {
				t.Fatalf("%s: request %d azimuth %d outside [0, 360) degrees", name, i, r.AzMilli)
			}
			if k := r.key(); seen[k] {
				t.Fatalf("%s: request %d repeats pose %s", name, i, k)
			} else {
				seen[k] = true
			}
		}
	}
}

func TestReplayPoseSetFitsTheFrameCache(t *testing.T) {
	const frameCacheEntries = 256 // renderd's -frame-cache default
	seen := map[string]bool{}
	for i := 0; i < 50000; i++ {
		r := genReplayHit(3, i)
		seen[r.key()] = true
	}
	if len(seen) > replayPoses || len(seen) >= frameCacheEntries {
		t.Fatalf("replay_hit touches %d poses; want <= %d, under the %d-entry cache", len(seen), replayPoses, frameCacheEntries)
	}
	for k := 0; k < replayPoses; k++ {
		p := replayPose(3, k)
		if !seen[p.key()] && k < 64 {
			t.Errorf("pose %d of the warm-up set is never requested in 50000 draws", k)
		}
	}
}

func TestDeadlineMixSharesAreExactPerDeck(t *testing.T) {
	counts := map[string]int{}
	n := 10 * len(deadlineDeck)
	for i := 0; i < n; i++ {
		counts[genDeadlineMix(5, i).Class]++
	}
	for class, share := range map[string]float64{"tight": 0.45, "medium": 0.25, "loose": 0.20, "impossible": 0.10} {
		if got := float64(counts[class]) / float64(n); math.Abs(got-share) > 1e-9 {
			t.Errorf("class %s is %.3f of the mix, want %.2f", class, got, share)
		}
	}
}

func TestDeadlineStreamFillsTheWindow(t *testing.T) {
	window := 10 * time.Second
	reqs := deadlineStream(9, 40, window)
	if want := int(deadlineRate * window.Seconds()); len(reqs) > want || len(reqs) <= want-len(deadlineDeck) || len(reqs)%len(deadlineDeck) != 0 {
		t.Fatalf("%d arrivals, want whole decks up to %d", len(reqs), want)
	}
	prev := time.Duration(0)
	for i, r := range reqs {
		if r.Due < prev || r.Due >= window {
			t.Fatalf("arrival %d due at %s: not ascending inside the window", i, r.Due)
		}
		prev = r.Due
		if r.Index != 40+i {
			t.Fatalf("arrival %d has index %d: stream does not continue after warm-up", i, r.Index)
		}
	}
}

func TestSessionsShareNoFrames(t *testing.T) {
	a, b := genSessionOrbit(1, 10), genSessionOrbit(1, 11)
	if a.Session == b.Session || a.ZoomMil == b.ZoomMil {
		t.Fatalf("consecutive requests %+v and %+v belong to one session or share a zoom", a, b)
	}
	next := genSessionOrbit(1, 12)
	if step := (next.AzMilli - a.AzMilli + fullTurn) % fullTurn; step != sessionStride {
		t.Fatalf("session steps %d millidegrees per frame, want %d", step, sessionStride)
	}
}

// streamDigest hashes the first n requests of a workload's stream, due
// times included — the identity two runs with one seed must share.
func streamDigest(w *workload, seed uint64, n int) string {
	h := sha256.New()
	var reqs []request
	if w.shape == openLoop {
		reqs = deadlineStream(seed, 0, time.Duration(float64(n)/deadlineRate*float64(time.Second)))
	} else {
		for i := 0; i < n; i++ {
			reqs = append(reqs, w.gen(seed, i))
		}
	}
	for i := range reqs {
		fmt.Fprintf(h, "%d %s %d %s %d\n", reqs[i].Index, reqs[i].key(), reqs[i].Session, reqs[i].Class, reqs[i].Due)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// BENCHMARK.json is the contract; the code must report what it lists.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].name)
		}
	}
	got := endToEnd(&httpRun{})
	if len(got) != len(spec.EndToEnd) {
		t.Errorf("endToEnd reports %d metrics, BENCHMARK.json lists %d", len(got), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s): the code reports %+v", m.Name, m.Unit, g)
		}
	}
}
