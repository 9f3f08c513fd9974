package scenario

import (
	"fmt"

	"insitu/internal/conduit"
	"insitu/internal/sim"
	"insitu/internal/vecmath"
)

// ShardData is one rank's slice of a sharded scene: the parsed block a
// simulation proxy publishes for that shard of the domain decomposition,
// plus the locally derived facts (bounds, scalar range) that the ranks
// reduce into the globally consistent camera and color map (ReduceView). It is
// deliberately device- and camera-free so a worker can cache it across
// requests that differ only in view or resolution.
type ShardData struct {
	Mesh        *ParsedMesh
	Field       string
	Values      []float64
	LocalBounds vecmath.AABB
	// FieldLo/FieldHi are the shard-local scalar range; callers reduce
	// them across the fleet before building scenes.
	FieldLo, FieldHi float64
}

// BuildShard steps one shard of a simulation proxy and slices its
// published block into a ShardData. shards is the total decomposition
// width and shard this rank's index in [0, shards) — the same
// (tasks, rank) pair the study measures with, so a sharded serving frame
// renders exactly the block layout the models were fitted on.
func BuildShard(simName string, n, shards, shard, cycles int) (*ShardData, error) {
	if shards < 1 {
		return nil, fmt.Errorf("scenario: shard count %d < 1", shards)
	}
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("scenario: shard index %d outside [0,%d)", shard, shards)
	}
	sm, err := sim.New(simName, n, shards, shard)
	if err != nil {
		return nil, err
	}
	if cycles < 1 {
		cycles = 1
	}
	for i := 0; i < cycles; i++ {
		sm.Step()
	}
	node := conduit.NewNode()
	sm.Publish(node)
	sd, err := ShardFromBlock(node, sm.PrimaryField())
	if err != nil {
		return nil, fmt.Errorf("scenario: %s shard %d/%d: %w", simName, shard, shards, err)
	}
	return sd, nil
}

// ShardFromBlock parses one rank's published block and slices out the
// named vertex field — the in situ path, where the simulation publishes
// its own block.
func ShardFromBlock(node *conduit.Node, field string) (*ShardData, error) {
	pm, err := ParseMesh(node)
	if err != nil {
		return nil, err
	}
	vals, err := pm.FieldValues(field)
	if err != nil {
		return nil, err
	}
	lo, hi := FieldRange(vals)
	return &ShardData{
		Mesh:        pm,
		Field:       field,
		Values:      vals,
		LocalBounds: pm.LocalBounds(),
		FieldLo:     lo,
		FieldHi:     hi,
	}, nil
}
