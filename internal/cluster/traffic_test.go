package cluster

import (
	"errors"
	"fmt"
	"testing"

	"insitu/internal/comm"
	"insitu/internal/core"
)

// TestFrameTrafficPinned pins one sharded frame's collective sequence by
// its message and byte counts on a fresh world. comm.FaultPlan keys its
// triggers by per-link message index, so the seeded chaos timelines mean
// the same faults only while this sequence stays exactly as it is: a
// change here is a change to every recorded fault schedule.
func TestFrameTrafficPinned(t *testing.T) {
	cases := []struct {
		backend     core.Renderer
		sim         string
		shards      int
		msgs, bytes int64
		fails       bool
	}{
		{core.RayTrace, "kripke", 2, 45, 69464, false},
		{core.RayTrace, "kripke", 4, 137, 173840, false},
		{core.Volume, "kripke", 2, 47, 69476, false},
		{core.Volume, "kripke", 4, 143, 173900, false},
		// The structured-only volume backend cannot eat lulesh's
		// unstructured blocks: every rank fails its setup, and the frame
		// ends at the first error barrier.
		{core.Volume, "lulesh", 2, 19, 204, true},
		{core.Volume, "lulesh", 4, 57, 612, true},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/%s/shards=%d", tc.backend, tc.sim, tc.shards), func(t *testing.T) {
			members := make([]int, tc.shards)
			for i := range members {
				members[i] = i
			}
			job := wireJob{Job: Job{
				Backend: string(tc.backend), Sim: tc.sim, Arch: "serial",
				N: 8, Width: 48, Height: 48, Shards: tc.shards,
				Azimuth: 30, Zoom: 1,
			}, Members: members}
			world := comm.NewWorld(tc.shards)
			err := world.Run(func(c *comm.Comm) error {
				st := newShardState(1, 1)
				defer st.Close()
				if res, _ := st.render(c, &job); res != nil && res.Err != "" {
					return errors.New(res.Err)
				}
				return nil
			})
			if (err != nil) != tc.fails {
				t.Fatalf("frame error %v, want failure %v", err, tc.fails)
			}
			if m, b := world.MessagesSent(), world.BytesSent(); m != tc.msgs || b != tc.bytes {
				t.Errorf("frame sent %d msgs / %d B, want %d / %d", m, b, tc.msgs, tc.bytes)
			}
		})
	}
}
