package comm

import (
	"sync"
	"testing"
)

func TestGroupValidation(t *testing.T) {
	w := NewWorld(4)
	c := w.Endpoint(1)
	for _, tc := range []struct {
		name    string
		members []int
	}{
		{"empty", nil},
		{"out of range", []int{1, 4}},
		{"negative", []int{-1, 1}},
		{"duplicate", []int{1, 2, 2}},
		{"caller not a member", []int{0, 2}},
	} {
		if _, err := c.Group(tc.members); err == nil {
			t.Errorf("%s: Group(%v) accepted", tc.name, tc.members)
		}
	}
	g, err := c.Group([]int{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.Rank() != 1 || g.Size() != 2 {
		t.Fatalf("rank %d size %d, want rank 1 size 2", g.Rank(), g.Size())
	}
}

// TestGroupCollectivesOverSubset runs collectives and point-to-point
// traffic over a rank subset in group coordinates, with member order
// deliberately not matching world order. This is the contract the
// compositor relies on when a frame is sharded over a subset of the
// worker fleet.
func TestGroupCollectivesOverSubset(t *testing.T) {
	w := NewWorld(5)
	members := []int{3, 1, 4} // group rank i = world rank members[i]

	var wg sync.WaitGroup
	for i, wr := range members {
		wg.Add(1)
		go func(vrank, worldRank int) {
			defer wg.Done()
			g, err := w.Endpoint(worldRank).Group(members)
			if err != nil {
				t.Errorf("world rank %d: %v", worldRank, err)
				return
			}
			if g.Rank() != vrank {
				t.Errorf("world rank %d: group rank %d, want %d", worldRank, g.Rank(), vrank)
				return
			}

			if sum := g.AllReduceSum(float64(worldRank)); sum != 3+1+4 {
				t.Errorf("group AllReduceSum = %v, want 8", sum)
			}
			if max := g.AllReduceMax(float64(worldRank)); max != 4 {
				t.Errorf("group AllReduceMax = %v, want 4", max)
			}

			got := g.Bcast(0, []float32{float32(worldRank)})
			if len(got) != 1 || got[0] != 3 {
				t.Errorf("group Bcast: got %v, want [3] (leader's world rank)", got)
			}

			rows := g.Gather(0, []float32{float32(worldRank)})
			if g.Rank() == 0 {
				for j, want := range members {
					if rows[j][0] != float32(want) {
						t.Errorf("group Gather row %d = %v, want %d", j, rows[j], want)
					}
				}
			} else if rows != nil {
				t.Errorf("non-root Gather returned %v", rows)
			}

			// Ring exchange in group coordinates.
			g.Send((g.Rank()+1)%g.Size(), 42, []float32{float32(g.Rank())})
			prev := (g.Rank() + g.Size() - 1) % g.Size()
			if m := g.Recv(prev, 42); m[0] != float32(prev) {
				t.Errorf("group ring: rank %d got %v from %d", g.Rank(), m, prev)
			}
			g.Barrier()
		}(i, wr)
	}
	wg.Wait()

	// Non-members were untouched: their links are empty, so a fresh
	// whole-world exchange still works.
	w.Endpoint(0).Send(2, 7, []float32{1})
	if m := w.Endpoint(2).Recv(0, 7); m[0] != 1 {
		t.Fatalf("world exchange after group traffic: got %v", m)
	}
}
