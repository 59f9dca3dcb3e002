package roadnet

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geo"
)

// TestRouterMatchesSSSP is the Router's exactness contract as a differential
// test against the kernel it no longer calls: on the repo benchmark's 56x56
// city plus a two-vertex island no street reaches, every Cost is bit-equal to
// Graph.SSSP's Dist (+Inf into and out of the island), and every Path is an
// edge walk from u to v that folds to that same cost. Capacity 1 holds 782
// pairs, so the memo rotates dozens of times under the 8 goroutines, which
// share sources pairwise so the same pairs race; answers may not depend on
// which generation or which goroutine produced them.
func TestRouterMatchesSSSP(t *testing.T) {
	g := benchCity(t)
	city := g.NumVertices()
	x := g.AddVertex(geo.Point{Lat: 31, Lng: 105})
	y := g.AddVertex(geo.Point{Lat: 31, Lng: 105.001})
	g.AddEdge(x, y, 90)
	g.AddEdge(y, x, 110)
	n := g.NumVertices()

	// The subtest name keeps the test id stable for suite-level tracking.
	t.Run("ch", func(t *testing.T) {
		r := NewRouter(g, 1).AttachCH(BuildCH(g))
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w / 2)))
				sources := []VertexID{x, VertexID(rng.Intn(city)), VertexID(rng.Intn(city)), VertexID(rng.Intn(city))}
				for _, u := range sources {
					tree := g.SSSP(u)
					targets := []VertexID{x, y, u}
					for i := 0; i < 120; i++ {
						targets = append(targets, VertexID(rng.Intn(n)))
					}
					for pass := 0; pass < 2; pass++ { // the second pass meets the memo
						for _, v := range targets {
							want := tree.Dist[v]
							if got := r.Cost(u, v); got != want {
								t.Errorf("Cost(%d,%d) = %v (bits %x), SSSP %v (bits %x)",
									u, v, got, math.Float64bits(got), want, math.Float64bits(want))
								return
							}
							if r.Reachable(u, v) == math.IsInf(want, 1) {
								t.Errorf("Reachable(%d,%d) disagrees with SSSP dist %v", u, v, want)
								return
							}
						}
					}
					for _, v := range targets[:40] {
						path := r.Path(u, v)
						if math.IsInf(tree.Dist[v], 1) {
							if path != nil {
								t.Errorf("Path(%d,%d) = %v for an unreachable pair", u, v, path)
								return
							}
							continue
						}
						if len(path) == 0 || path[0] != u || path[len(path)-1] != v {
							t.Errorf("Path(%d,%d) endpoints: %v", u, v, path)
							return
						}
						if c, err := g.PathCost(path); err != nil || c != tree.Dist[v] {
							t.Errorf("Path(%d,%d) folds to %v (err %v), SSSP %v", u, v, c, err, tree.Dist[v])
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		st := r.Stats()
		if st.Hits == 0 || st.CHQueries == 0 {
			t.Fatalf("hits=%d point queries=%d: one of the two states never ran", st.Hits, st.CHQueries)
		}
		if budget := int64(12 * n); st.MemoBytes > budget {
			t.Fatalf("memo holds %d bytes, budget %d", st.MemoBytes, budget)
		}
	})
}
