package partition

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// landmarksReference is computeLandmarks as one full SSSP tree per
// candidate, serially: the oracle the target-bounded, parallel search must
// reproduce.
func landmarksReference(pt *Partitioning) []roadnet.VertexID {
	const candidates = 5
	const sampleCap = 24
	out := make([]roadnet.VertexID, len(pt.parts))
	for p, vs := range pt.parts {
		cand := nearestK(pt.g, vs, pt.center[p], candidates)
		if len(cand) == 1 {
			out[p] = cand[0]
			continue
		}
		step := len(vs)/sampleCap + 1
		var sample []roadnet.VertexID
		for i := 0; i < len(vs); i += step {
			sample = append(sample, vs[i])
		}
		best, bestSum := cand[0], math.Inf(1)
		for _, u := range cand {
			res := pt.g.SSSP(u)
			var sum float64
			for _, w := range sample {
				d := res.Dist[w]
				if math.IsInf(d, 1) {
					d = 10 * geo.Equirect(pt.g.Point(u), pt.g.Point(w))
				}
				sum += d
			}
			if sum < bestSum {
				best, bestSum = u, sum
			}
		}
		out[p] = best
	}
	return out
}

// TestLandmarksMatchReference compares the landmarks on the grid and radial
// oracle worlds (bipartite and grid partitioners) and on a one-way ring
// split from the rest of its graph, where some samples are unreachable and
// take the straight-line penalty.
func TestLandmarksMatchReference(t *testing.T) {
	worlds := oracleWorlds(t)
	g := roadnet.NewGraph(12)
	for i := 0; i < 12; i++ {
		g.AddVertex(geo.Point{Lat: 30 + 0.001*float64(i/4), Lng: 104 + 0.001*float64(i%4)})
	}
	for i := 0; i < 8; i++ { // a one-way ring 0→1→…→7→0
		g.AddEdge(roadnet.VertexID(i), roadnet.VertexID((i+1)%8), 100+float64(i))
	}
	g.AddEdge(8, 9, 50) // 8..11: no road from the ring, one edge inside
	gp, err := BuildGrid(g, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	worlds = append(worlds, oracleWorld{"one-way-split", g, gp})
	for _, w := range worlds {
		want := landmarksReference(w.pt)
		for p, l := range w.pt.landmark {
			if l != want[p] {
				t.Errorf("%s: landmark of partition %d = %d, reference %d", w.name, p, l, want[p])
			}
		}
	}
}
