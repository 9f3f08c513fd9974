package cluster

import (
	"fmt"
	"hash/fnv"
)

// shardKey is the placement identity of one shard: the worker-side scene
// cache key, which leaves out resolution and workload. Keying placement
// on it means a request degraded to a lower resolution or workload still
// lands each shard on the rank already holding its prepared scene, while
// distinct (sim, n, shard-count) tuples spread across the fleet.
func shardKey(job *Job, shard int) string {
	return fmt.Sprintf("%s|%s|%s|n%d|k%d|s%d", job.Arch, job.Backend, job.Sim, job.N, job.Shards, shard)
}

// placeShards assigns each of k shards a distinct worker rank in
// [1, workers] by rendezvous (highest-random-weight) hashing: shard i
// takes the available worker with the highest hash of (shard key, rank).
// Distinctness is required for correctness, not just balance — a worker
// executes jobs serially, so two shards of one frame on the same rank
// would deadlock in the frame's collectives. The assignment is a pure
// function of the job parameters and the set of live ranks, so repeated
// requests for the same configuration always reuse the same ranks (hot
// scene caches) and the standalone reference path can reproduce the
// grouping.
//
// dead (nil = all live) excludes evicted ranks. The HRW property makes
// re-placement after an eviction minimal: a shard moves only if its
// highest-weight rank was the evicted one; every other shard keeps its
// rank and its warm caches.
func placeShards(workers int, dead func(int) bool, job *Job) ([]int, error) {
	k := job.Shards
	alive := workers
	if dead != nil {
		alive = 0
		for w := 1; w <= workers; w++ {
			if !dead(w) {
				alive++
			}
		}
	}
	if k < 1 || k > alive {
		return nil, fmt.Errorf("cluster: %d shards for %d live workers", k, alive)
	}
	members := make([]int, k)
	taken := make([]bool, workers+1)
	for s := 0; s < k; s++ {
		key := shardKey(job, s)
		best, bestScore := -1, uint64(0)
		for w := 1; w <= workers; w++ {
			if taken[w] || (dead != nil && dead(w)) {
				continue
			}
			h := fnv.New64a()
			fmt.Fprintf(h, "%s|w%d", key, w)
			if score := h.Sum64(); best < 0 || score > bestScore {
				best, bestScore = w, score
			}
		}
		members[s] = best
		taken[best] = true
	}
	return members, nil
}
