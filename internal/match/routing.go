package match

import (
	"math"

	"repro/internal/geo"
	"repro/internal/partition"
	"repro/internal/roadnet"
)

// pairKey packs two int32-sized IDs into one cache key.
func pairKey(a, b int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// filterEpsilon is the partition filter's travel-cost detour tolerance ε
// (Table II: 1).
const filterEpsilon = 1.0

// PartitionFilter implements Alg. 2: given two consecutive event vertices,
// retain the partitions that satisfy both the travel-direction rule
// (cos θ ≥ λ between the landmark vector ℓ_z→ℓ_i and ℓ_z→ℓ_{z+1}) and the
// travel-cost rule (cost(ℓ_z,ℓ_i)+cost(ℓ_i,ℓ_{z+1}) ≤ (1+ε)·cost(ℓ_z,ℓ_{z+1})).
// The endpoints' own partitions are always retained. Results are memoised
// per partition pair.
func (e *Engine) PartitionFilter(sz, sz1 roadnet.VertexID) []partition.ID {
	pa := e.pt.PartitionOf(sz)
	pb := e.pt.PartitionOf(sz1)
	key := pairKey(int32(pa), int32(pb))
	e.filterMu.RLock()
	if cached, ok := e.filterCache[key]; ok {
		e.filterMu.RUnlock()
		return cached
	}
	e.filterMu.RUnlock()

	direct := e.pt.LandmarkCost(pa, pb)
	vz := e.pt.LandmarkVector(pa, pb)
	budget := (1 + filterEpsilon) * direct
	out := []partition.ID{pa}
	if pb != pa {
		out = append(out, pb)
	}
	for p := 0; p < e.pt.NumPartitions(); p++ {
		pi := partition.ID(p)
		if pi == pa || pi == pb {
			continue
		}
		// Travel-cost rule first: it prunes most partitions and the cost
		// table lookup is cheaper than the vector math.
		through := e.pt.LandmarkCost(pa, pi) + e.pt.LandmarkCost(pi, pb)
		if math.IsInf(through, 1) || through > budget {
			continue
		}
		// Travel-direction rule. Degenerate same-partition pairs
		// (direct == 0) have no defined direction; the cost rule alone
		// governs them.
		if direct > 0 {
			vi := e.pt.LandmarkVector(pa, pi)
			if geo.CosineSimilarity(vi, vz) < e.cfg.Lambda {
				continue
			}
		}
		out = append(out, pi)
	}
	e.filterMu.Lock()
	if len(e.filterCache) > 1<<16 {
		e.filterCache = make(map[uint64][]partition.ID)
	}
	e.filterCache[key] = out
	e.filterMu.Unlock()
	return out
}

// allowedSet builds the partition set a restricted search may enter.
func (e *Engine) allowedSet(parts []partition.ID) map[partition.ID]bool {
	m := make(map[partition.ID]bool, len(parts))
	for _, p := range parts {
		m[p] = true
	}
	return m
}

// BasicLegCost returns the travel cost of a basic-routing leg (Alg. 3).
// The paper's evaluation assumes O(1) shortest-path queries backed by a
// precomputed cache (§V-A4), which makes basic-routing legs exactly the
// cached shortest paths. A search confined to the Alg. 2 partitions (the
// production fast path the paper describes) is measured only by the
// ablate-filter experiment: at the harness's coarse partition granularity
// its detours would otherwise leak into matching quality in a way the
// paper's cached evaluation never exhibits.
func (e *Engine) BasicLegCost(u, v roadnet.VertexID) (float64, bool) {
	if u == v {
		return 0, true
	}
	c := e.router.Cost(u, v)
	return c, !math.IsInf(c, 1)
}

// BasicLegPath materialises the basic-routing leg path between u and v
// with its cost: probabilistic routing's fallback leg.
func (e *Engine) BasicLegPath(u, v roadnet.VertexID) ([]roadnet.VertexID, float64, bool) {
	if u == v {
		return []roadnet.VertexID{u}, 0, true
	}
	p := e.router.Path(u, v)
	if p == nil {
		return nil, 0, false
	}
	return p, e.router.Cost(u, v), true
}
