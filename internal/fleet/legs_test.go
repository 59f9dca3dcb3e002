package fleet

import (
	"slices"
	"testing"
	"time"

	"repro/internal/roadnet"
)

// pathOnlyRouter answers Path from the graph and records every pair asked;
// blocked pairs are unreachable. Cost and Reachable fail the test: leg
// building needs paths only.
type pathOnlyRouter struct {
	t       *testing.T
	g       *roadnet.Graph
	blocked [2]roadnet.VertexID
	asked   [][2]roadnet.VertexID
}

func (r *pathOnlyRouter) Path(u, v roadnet.VertexID) []roadnet.VertexID {
	r.asked = append(r.asked, [2]roadnet.VertexID{u, v})
	if [2]roadnet.VertexID{u, v} == r.blocked {
		return nil
	}
	_, p, _ := r.g.ShortestPath(u, v)
	return p
}

func (r *pathOnlyRouter) Cost(u, v roadnet.VertexID) float64 {
	r.t.Fatalf("BuildLegs asked Cost(%d, %d)", u, v)
	return 0
}

func (r *pathOnlyRouter) Reachable(u, v roadnet.VertexID) bool {
	r.t.Fatalf("BuildLegs asked Reachable(%d, %d)", u, v)
	return false
}

// TestBuildLegs routes a schedule whose first event sits at the start and
// whose last two share a vertex: those legs are the vertex alone and never
// reach the router, every other leg is the shortest path ending at its
// event, and one unroutable leg fails the whole build.
func TestBuildLegs(t *testing.T) {
	g := testGraph()
	r1 := testRequest(g, 1, 2, 4, 0, time.Hour)
	r2 := testRequest(g, 2, 0, 4, 0, time.Hour)
	events := []Event{{r1, Pickup}, {r2, Pickup}, {r1, Dropoff}, {r2, Dropoff}}
	r := &pathOnlyRouter{t: t, g: g, blocked: [2]roadnet.VertexID{-1, -1}}
	legs, ok := BuildLegs(r, 2, events)
	if !ok {
		t.Fatal("routable schedule reported unroutable")
	}
	want := [][]roadnet.VertexID{{2}, {2, 1, 0}, {0, 1, 2, 3, 4}, {4}}
	for i := range want {
		if !slices.Equal(legs[i], want[i]) {
			t.Fatalf("leg %d = %v, want %v", i, legs[i], want[i])
		}
	}
	if want := [][2]roadnet.VertexID{{2, 0}, {0, 4}}; !slices.Equal(r.asked, want) {
		t.Fatalf("router asked %v, want %v", r.asked, want)
	}

	r = &pathOnlyRouter{t: t, g: g, blocked: [2]roadnet.VertexID{0, 4}}
	if legs, ok := BuildLegs(r, 2, events); ok || legs != nil {
		t.Fatalf("unroutable leg built %v, ok=%v", legs, ok)
	}
}
