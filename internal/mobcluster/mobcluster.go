// Package mobcluster implements mT-Share's mobility clustering (§IV-B2 of
// the paper): ride requests and shared taxis are grouped by the travel
// direction of their mobility vectors under a cosine-similarity threshold
// λ (Eq. 1). Clusters are built incrementally — the first request forms the
// initial cluster, later requests join the most similar cluster or open a
// new one — and each cluster maintains a general mobility vector averaged
// over its request members plus the taxi list Ca.Lt used by candidate
// search (§IV-B3).
package mobcluster

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/geo"
)

// ClusterID identifies a mobility cluster. IDs are never reused within one
// Clusters instance.
type ClusterID int64

// NoCluster is returned when no cluster matches.
const NoCluster ClusterID = -1

// cluster is one mobility cluster's internal state.
type cluster struct {
	id ClusterID

	// Request members and the running endpoint sums from which the
	// general mobility vector is derived.
	requests map[int64]geo.MobilityVector
	sumOLat  float64
	sumOLng  float64
	sumDLat  float64
	sumDLng  float64

	// Taxis currently travelling in this cluster's direction — the list
	// Ca.Lt — with the vectors they were registered under, ascending by
	// taxi ID so that general() sums them in one order on every run.
	taxis []MemberState
}

// findTaxi returns where taxi id is, or would be inserted, in c.taxis.
func (c *cluster) findTaxi(id int64) (int, bool) {
	return slices.BinarySearchFunc(c.taxis, id, func(t MemberState, id int64) int { return cmp.Compare(t.ID, id) })
}

// general returns the cluster's general mobility vector: endpoint averages
// over request members; when the cluster holds only taxis, over taxis.
func (c *cluster) general() geo.MobilityVector {
	if n := float64(len(c.requests)); n > 0 {
		return geo.MobilityVector{
			OriginLat: c.sumOLat / n,
			OriginLng: c.sumOLng / n,
			DestLat:   c.sumDLat / n,
			DestLng:   c.sumDLng / n,
		}
	}
	var v geo.MobilityVector
	n := float64(len(c.taxis))
	if n == 0 {
		return v
	}
	for _, t := range c.taxis {
		v.OriginLat += t.Vec.OriginLat
		v.OriginLng += t.Vec.OriginLng
		v.DestLat += t.Vec.DestLat
		v.DestLng += t.Vec.DestLng
	}
	v.OriginLat /= n
	v.OriginLng /= n
	v.DestLat /= n
	v.DestLng /= n
	return v
}

func (c *cluster) empty() bool { return len(c.requests) == 0 && len(c.taxis) == 0 }

// Clusters manages the full set of mobility clusters. It is safe for
// concurrent use.
type Clusters struct {
	mu      sync.RWMutex
	lambda  float64
	nextID  ClusterID
	byID    map[ClusterID]*cluster
	request map[int64]ClusterID
	taxi    map[int64]ClusterID
}

// New creates an empty cluster set with similarity threshold lambda
// (λ = cos θ; the paper's default is cos 45° ≈ 0.707). It panics if lambda
// is outside [-1, 1].
func New(lambda float64) *Clusters {
	if lambda < -1 || lambda > 1 {
		panic(fmt.Sprintf("mobcluster: lambda %v outside [-1,1]", lambda))
	}
	return &Clusters{
		lambda:  lambda,
		byID:    make(map[ClusterID]*cluster),
		request: make(map[int64]ClusterID),
		taxi:    make(map[int64]ClusterID),
	}
}

// Lambda returns the similarity threshold.
func (cs *Clusters) Lambda() float64 {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	return cs.lambda
}

// NumClusters returns the number of live clusters.
func (cs *Clusters) NumClusters() int {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	return len(cs.byID)
}

// bestLocked returns the cluster with the highest similarity to v that
// clears lambda — inclusively: similarity exactly at λ qualifies, matching
// CompatibleTaxis and the paper's cos ≥ λ convention (Eq. 1). Ties break
// toward the oldest cluster for determinism. A zero-magnitude vector
// (origin == destination, direction undefined) matches nothing.
// Callers hold at least the read lock.
func (cs *Clusters) bestLocked(v geo.MobilityVector) *cluster {
	if v.IsZero() {
		return nil
	}
	var best *cluster
	bestSim := 0.0
	for _, c := range cs.byID {
		sim := geo.CosineSimilarity(v, c.general())
		if sim < cs.lambda {
			continue
		}
		if best == nil || sim > bestSim || (sim == bestSim && c.id < best.id) {
			best, bestSim = c, sim
		}
	}
	return best
}

// Best returns the live cluster most similar to v, provided the similarity
// clears λ. Candidate search uses it to locate the cluster Ca of Eq. 3.
func (cs *Clusters) Best(v geo.MobilityVector) (ClusterID, bool) {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	if c := cs.bestLocked(v); c != nil {
		return c.id, true
	}
	return NoCluster, false
}

// CompatibleTaxis returns the union of the taxi lists of every cluster
// whose general vector is direction-compatible with v (cos ≥ λ).
// Incremental clustering fragments one travel direction across several
// clusters as the request mix shifts, so restricting Eq. 3's intersection
// to the single most similar cluster would drop compatible taxis that
// happen to sit in a sibling cluster; the union keeps the index's intent —
// discard taxis travelling a dissimilar direction — without the
// fragmentation artefact.
func (cs *Clusters) CompatibleTaxis(v geo.MobilityVector) []int64 {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	var out []int64
	for _, c := range cs.byID {
		if cs.compatibleLocked(c, v) {
			for _, t := range c.taxis {
				out = append(out, t.ID)
			}
		}
	}
	return out
}

// compatibleLocked reports whether c holds taxis and its general vector is
// direction-compatible with v. A degenerate v has no direction to be
// compatible with; without the guard, CosineSimilarity's 0-for-zero-norm
// convention would make it "compatible" with every cluster whenever λ ≤ 0.
// Callers hold the read lock.
func (cs *Clusters) compatibleLocked(c *cluster, v geo.MobilityVector) bool {
	return !v.IsZero() && len(c.taxis) > 0 && geo.CosineSimilarity(v, c.general()) >= cs.lambda
}

// CompatibleClusters appends to dst the clusters whose taxi lists
// CompatibleTaxis(v) unions: a taxi is in that union exactly when its
// TaxiCluster is among them, so candidate search need not materialise it.
func (cs *Clusters) CompatibleClusters(dst []ClusterID, v geo.MobilityVector) []ClusterID {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	for _, c := range cs.byID {
		if cs.compatibleLocked(c, v) {
			dst = append(dst, c.id)
		}
	}
	return dst
}

// AddRequest inserts a ride request's mobility vector, joining the most
// similar cluster or forming a new one, and returns the cluster joined.
// A zero-magnitude vector always forms its own singleton cluster — its
// direction is undefined, so it neither joins nor attracts anything.
// Re-adding an existing ID first removes the old membership.
func (cs *Clusters) AddRequest(id int64, v geo.MobilityVector) ClusterID {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if old, ok := cs.request[id]; ok {
		cs.removeRequestLocked(id, old)
	}
	c := cs.bestLocked(v)
	if c == nil {
		c = cs.newClusterLocked()
	}
	c.requests[id] = v
	c.sumOLat += v.OriginLat
	c.sumOLng += v.OriginLng
	c.sumDLat += v.DestLat
	c.sumDLng += v.DestLng
	cs.request[id] = c.id
	return c.id
}

// RemoveRequest drops a request (e.g. on completion). Unknown IDs are a
// no-op, which lets callers remove unconditionally.
func (cs *Clusters) RemoveRequest(id int64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cid, ok := cs.request[id]; ok {
		cs.removeRequestLocked(id, cid)
	}
}

func (cs *Clusters) removeRequestLocked(id int64, cid ClusterID) {
	c := cs.byID[cid]
	v := c.requests[id]
	delete(c.requests, id)
	c.sumOLat -= v.OriginLat
	c.sumOLng -= v.OriginLng
	c.sumDLat -= v.DestLat
	c.sumDLng -= v.DestLng
	delete(cs.request, id)
	if c.empty() {
		delete(cs.byID, cid)
	}
}

// UpdateTaxi registers or re-registers a shared taxi's mobility vector
// (current location → centre of its passengers' destinations) and moves it
// to the most similar cluster, creating one when nothing matches. It
// returns the cluster the taxi now belongs to.
func (cs *Clusters) UpdateTaxi(id int64, v geo.MobilityVector) ClusterID {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if old, ok := cs.taxi[id]; ok {
		cs.removeTaxiLocked(id, old)
	}
	c := cs.bestLocked(v)
	if c == nil {
		c = cs.newClusterLocked()
	}
	i, _ := c.findTaxi(id)
	c.taxis = slices.Insert(c.taxis, i, MemberState{ID: id, Vec: v})
	cs.taxi[id] = c.id
	return c.id
}

// RemoveTaxi drops a taxi from its cluster (e.g. when it becomes empty and
// has no fixed travel destination, per the paper empty taxis are not
// mobility-clustered). Unknown IDs are a no-op.
func (cs *Clusters) RemoveTaxi(id int64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cid, ok := cs.taxi[id]; ok {
		cs.removeTaxiLocked(id, cid)
	}
}

func (cs *Clusters) removeTaxiLocked(id int64, cid ClusterID) {
	c := cs.byID[cid]
	if i, ok := c.findTaxi(id); ok {
		c.taxis = slices.Delete(c.taxis, i, i+1)
	}
	delete(cs.taxi, id)
	if c.empty() {
		delete(cs.byID, cid)
	}
}

func (cs *Clusters) newClusterLocked() *cluster {
	c := &cluster{
		id:       cs.nextID,
		requests: make(map[int64]geo.MobilityVector),
	}
	cs.nextID++
	cs.byID[c.id] = c
	return c
}

// Taxis returns the taxi list Ca.Lt of the given cluster in ascending ID
// order; nil for a dead cluster.
func (cs *Clusters) Taxis(cid ClusterID) []int64 {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	c, ok := cs.byID[cid]
	if !ok {
		return nil
	}
	out := make([]int64, 0, len(c.taxis))
	for _, t := range c.taxis {
		out = append(out, t.ID)
	}
	return out
}

// TaxiCluster returns the cluster a taxi currently belongs to.
func (cs *Clusters) TaxiCluster(id int64) (ClusterID, bool) {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	cid, ok := cs.taxi[id]
	return cid, ok
}

// RequestCluster returns the cluster a request currently belongs to.
func (cs *Clusters) RequestCluster(id int64) (ClusterID, bool) {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	cid, ok := cs.request[id]
	return cid, ok
}

// General returns the general mobility vector of a cluster.
func (cs *Clusters) General(cid ClusterID) (geo.MobilityVector, bool) {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	c, ok := cs.byID[cid]
	if !ok {
		return geo.MobilityVector{}, false
	}
	return c.general(), true
}

// Stats summarises the cluster set for diagnostics and the Table IV
// memory-overhead accounting.
type Stats struct {
	Clusters    int
	Requests    int
	Taxis       int
	MemoryBytes int64
}

// Stats returns a snapshot of aggregate state.
func (cs *Clusters) Stats() Stats {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	s := Stats{Clusters: len(cs.byID)}
	for _, c := range cs.byID {
		s.Requests += len(c.requests)
		s.Taxis += len(c.taxis)
	}
	// Rough per-entry costs: map overhead + vector payload.
	s.MemoryBytes = int64(len(cs.byID))*160 +
		int64(s.Requests)*56 + int64(s.Taxis)*56 +
		int64(len(cs.request))*24 + int64(len(cs.taxi))*24
	return s
}
