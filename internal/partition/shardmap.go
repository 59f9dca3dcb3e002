package partition

import "fmt"

// ShardMap assigns every partition to exactly one shard of a sharded
// dispatcher. Shards own contiguous partition-ID ranges — partition IDs
// are dense and the bipartite builder groups geographically coherent
// vertices under nearby IDs, so contiguous ranges keep each shard's
// territory compact — balanced by member vertex count, not partition
// count, so a shard owning a few dense downtown partitions does not also
// own half the suburbs.
//
// The map is a pure function of (partitioning, shard count): building it
// twice over the same partitioning yields identical ownership, which is
// what makes shard routing a total, deterministic function of the pickup
// partition. It is immutable and safe for concurrent use.
type ShardMap struct {
	shards int
	of     []int // partition ID -> owning shard
	lo, hi []ID  // shard -> inclusive partition-ID range
	verts  []int // shard -> owned vertex count
}

// NewShardMap splits the partitioning's partitions into n contiguous
// shards balanced by vertex count. n must be at least 1 and at most the
// number of partitions (every shard owns at least one partition).
func NewShardMap(pt *Partitioning, n int) (*ShardMap, error) {
	k := pt.NumPartitions()
	if n < 1 {
		return nil, fmt.Errorf("partition: shard count %d < 1", n)
	}
	if n > k {
		return nil, fmt.Errorf("partition: %d shards over %d partitions — every shard needs at least one", n, k)
	}
	total := 0
	for p := 0; p < k; p++ {
		total += len(pt.Vertices(ID(p)))
	}
	sm := &ShardMap{
		shards: n,
		of:     make([]int, k),
		lo:     make([]ID, n),
		hi:     make([]ID, n),
		verts:  make([]int, n),
	}
	// Greedy contiguous sweep: each shard takes partitions until it holds
	// its fair share of the *remaining* vertices, leaving enough
	// partitions behind for every remaining shard to get at least one.
	p := 0
	remaining := total
	for s := 0; s < n; s++ {
		target := remaining / (n - s)
		sm.lo[s] = ID(p)
		count := 0
		for {
			count += len(pt.Vertices(ID(p)))
			sm.of[p] = s
			p++
			if p > k-(n-s-1)-1 { // leave one partition per remaining shard
				break
			}
			if count >= target && s < n-1 {
				break
			}
		}
		sm.hi[s] = ID(p - 1)
		sm.verts[s] = count
		remaining -= count
	}
	return sm, nil
}

// NumShards returns the shard count.
func (sm *ShardMap) NumShards() int { return sm.shards }

// ShardOf returns the shard owning partition p.
func (sm *ShardMap) ShardOf(p ID) int { return sm.of[p] }

// Range returns shard s's inclusive partition-ID range.
func (sm *ShardMap) Range(s int) (lo, hi ID) { return sm.lo[s], sm.hi[s] }

// VertexCount returns the number of road-graph vertices shard s owns.
func (sm *ShardMap) VertexCount(s int) int { return sm.verts[s] }
