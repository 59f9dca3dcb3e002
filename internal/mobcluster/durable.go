package mobcluster

import (
	"fmt"
	"sort"

	"repro/internal/geo"
)

// MemberState is one cluster member (request or taxi) with the mobility
// vector it was registered under.
type MemberState struct {
	ID  int64              `json:"id"`
	Vec geo.MobilityVector `json:"vec"`
}

// ClusterState serializes one cluster. The endpoint sums are carried
// verbatim rather than recomputed from the members: they accumulate in
// arrival order, so re-summing in any other order can differ in the last
// ULP and change a later similarity comparison.
type ClusterState struct {
	ID       int64         `json:"id"`
	SumOLat  float64       `json:"so_lat"`
	SumOLng  float64       `json:"so_lng"`
	SumDLat  float64       `json:"sd_lat"`
	SumDLng  float64       `json:"sd_lng"`
	Requests []MemberState `json:"requests,omitempty"`
	Taxis    []MemberState `json:"taxis,omitempty"`
}

// State serializes the whole cluster set.
type State struct {
	NextID   int64          `json:"next_id"`
	Clusters []ClusterState `json:"clusters,omitempty"`
}

func sortedMembers(m map[int64]geo.MobilityVector) []MemberState {
	if len(m) == 0 {
		return nil
	}
	out := make([]MemberState, 0, len(m))
	for id, v := range m {
		out = append(out, MemberState{ID: id, Vec: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CaptureState snapshots the cluster set deterministically (clusters and
// members sorted by ID).
func (cs *Clusters) CaptureState() State {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	st := State{NextID: int64(cs.nextID)}
	ids := make([]ClusterID, 0, len(cs.byID))
	for id := range cs.byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		c := cs.byID[id]
		st.Clusters = append(st.Clusters, ClusterState{
			ID:       int64(c.id),
			SumOLat:  c.sumOLat,
			SumOLng:  c.sumOLng,
			SumDLat:  c.sumDLat,
			SumDLng:  c.sumDLng,
			Requests: sortedMembers(c.requests),
			Taxis:    append([]MemberState(nil), c.taxis...),
		})
	}
	return st
}

// RestoreState replaces the cluster set with the captured one. λ is part
// of the engine configuration, not the state, and is left untouched.
func (cs *Clusters) RestoreState(st State) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	byID := make(map[ClusterID]*cluster, len(st.Clusters))
	request := make(map[int64]ClusterID)
	taxi := make(map[int64]ClusterID)
	for _, c := range st.Clusters {
		id := ClusterID(c.ID)
		if id >= ClusterID(st.NextID) {
			return fmt.Errorf("mobcluster: cluster %d at or past next_id %d", c.ID, st.NextID)
		}
		if _, dup := byID[id]; dup {
			return fmt.Errorf("mobcluster: duplicate cluster %d", c.ID)
		}
		cl := &cluster{
			id:       id,
			sumOLat:  c.SumOLat,
			sumOLng:  c.SumOLng,
			sumDLat:  c.SumDLat,
			sumDLng:  c.SumDLng,
			requests: make(map[int64]geo.MobilityVector, len(c.Requests)),
		}
		for _, m := range c.Requests {
			if _, dup := request[m.ID]; dup {
				return fmt.Errorf("mobcluster: request %d in two clusters", m.ID)
			}
			cl.requests[m.ID] = m.Vec
			request[m.ID] = id
		}
		for _, m := range c.Taxis {
			if _, dup := taxi[m.ID]; dup {
				return fmt.Errorf("mobcluster: taxi %d in two clusters", m.ID)
			}
			cl.taxis = append(cl.taxis, m)
			taxi[m.ID] = id
		}
		sort.Slice(cl.taxis, func(i, j int) bool { return cl.taxis[i].ID < cl.taxis[j].ID })
		if cl.empty() {
			return fmt.Errorf("mobcluster: cluster %d has no members", c.ID)
		}
		byID[id] = cl
	}
	cs.nextID = ClusterID(st.NextID)
	cs.byID = byID
	cs.request = request
	cs.taxi = taxi
	return nil
}
