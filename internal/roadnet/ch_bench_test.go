package roadnet

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// BenchmarkCHBuild measures contraction-hierarchy preprocessing on the
// repo benchmark's city (see benchCity, 3 131 vertices): the build the
// ledger's roadnet.ch_build_s times, where a regression in the
// node-ordering or witness-search logic shows up as a clear slowdown.
func BenchmarkCHBuild(b *testing.B) {
	g := benchCity(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildCH(g)
	}
}

// BenchmarkCHCost measures a warm point query on the repo benchmark's city
// (see benchCity) over ride-like pairs — the dropoff within 0.35 of the
// bounding box per axis of the pickup and at least 0.08 away, as
// bench/workload.go draws them — which is what the ledger's
// roadnet.ch_cost_us times and the Router's cold path runs.
func BenchmarkCHCost(b *testing.B) {
	g := benchCity(b)
	ch := BuildCH(g)
	lo, hi := g.Bounds()
	dLat, dLng := hi.Lat-lo.Lat, hi.Lng-lo.Lng
	rng := rand.New(rand.NewSource(17))
	var pairs [512][2]VertexID
	for i := 0; i < len(pairs); {
		u, v := VertexID(rng.Intn(g.NumVertices())), VertexID(rng.Intn(g.NumVertices()))
		x := math.Abs(g.Point(u).Lat-g.Point(v).Lat) / dLat
		y := math.Abs(g.Point(u).Lng-g.Point(v).Lng) / dLng
		if x <= 0.35 && y <= 0.35 && x+y >= 0.08 {
			pairs[i] = [2]VertexID{u, v}
			i++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		_ = ch.Cost(p[0], p[1])
	}
}

// chengduWorld is the Chengdu-scale routing substrate: a generated city
// matching the paper's road-network size (~214k vertices, ~720k edges).
// The graph and its hierarchy build once per process and are shared by
// every benchmark; with -count>1 the ~1-minute preprocessing cost is paid
// a single time.
var chengduWorld struct {
	once sync.Once
	g    *Graph
	ch   *CH
	err  error
}

func chengduScale(b *testing.B) (*Graph, *CH) {
	b.Helper()
	chengduWorld.once.Do(func() {
		cp := DefaultCityParams(463, 463)
		cp.Seed = 9
		g, err := GenerateCity(cp)
		if err != nil {
			chengduWorld.err = err
			return
		}
		chengduWorld.g = g
		chengduWorld.ch = BuildCH(g)
	})
	if chengduWorld.err != nil {
		b.Fatal(chengduWorld.err)
	}
	return chengduWorld.g, chengduWorld.ch
}

// chengduPairs picks connected query pairs spread across the graph.
func chengduPairs(b *testing.B, g *Graph, ch *CH, n int) [][2]VertexID {
	b.Helper()
	rng := rand.New(rand.NewSource(17))
	nv := g.NumVertices()
	pairs := make([][2]VertexID, 0, n)
	for len(pairs) < n {
		s := VertexID(rng.Intn(nv))
		d := VertexID(rng.Intn(nv))
		if s == d || math.IsInf(ch.Cost(s, d), 1) {
			continue
		}
		pairs = append(pairs, [2]VertexID{s, d})
	}
	return pairs
}

// BenchmarkChengduCHRouting measures point-to-point routing on the
// Chengdu-scale graph with the hierarchy and with plain Dijkstra, its
// oracle. The hierarchy settles a few hundred vertices where plain
// Dijkstra settles on the order of the whole graph, so backend=ch versus
// backend=dijkstra is the headline CH speedup at the paper's scale. Both
// return bit-identical costs (pinned by TestCHExactOnCity), so the ratio
// is a pure performance comparison. backend=ch also reports the vertices
// a query settles and, as informational metrics, the one-time
// preprocessing cost and shortcut count.
func BenchmarkChengduCHRouting(b *testing.B) {
	g, ch := chengduScale(b)
	pairs := chengduPairs(b, g, ch, 64)
	b.Run("backend=ch", func(b *testing.B) {
		total := 0
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			_, _, settled, ok := ch.ShortestPath(p[0], p[1])
			if !ok {
				b.Fatal("unroutable pair")
			}
			total += settled
		}
		b.StopTimer()
		st := ch.Stats()
		b.ReportMetric(float64(total)/float64(b.N), "settled/op")
		b.ReportMetric(st.BuildSeconds, "build-s")
		b.ReportMetric(float64(st.Shortcuts), "shortcuts")
	})
	b.Run("backend=dijkstra", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if _, _, ok := g.ShortestPath(p[0], p[1]); !ok {
				b.Fatal("unroutable pair")
			}
		}
	})
}
