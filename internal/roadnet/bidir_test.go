package roadnet

import (
	"math"
	"math/rand"
	"testing"
)

func TestBidirectionalMatchesDijkstra(t *testing.T) {
	g, err := GenerateCity(DefaultCityParams(15, 15))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 40; i++ {
		src := VertexID(rng.Intn(g.NumVertices()))
		dst := VertexID(rng.Intn(g.NumVertices()))
		dc, _, dok := g.ShortestPath(src, dst)
		bc, bpath, bok := g.BidirectionalShortestPath(src, dst)
		if dok != bok {
			t.Fatalf("reachability disagreement src=%d dst=%d", src, dst)
		}
		if !dok {
			continue
		}
		if math.Abs(dc-bc) > 1e-6 {
			t.Fatalf("bidir cost %v != dijkstra %v (src=%d dst=%d)", bc, dc, src, dst)
		}
		if bpath[0] != src || bpath[len(bpath)-1] != dst {
			t.Fatalf("bidir path endpoints %v", bpath)
		}
		if c, err := g.PathCost(bpath); err != nil || math.Abs(c-bc) > 1e-6 {
			t.Fatalf("bidir path invalid: %v %v", c, err)
		}
	}
}

func TestBidirectionalSelfAndUnreachable(t *testing.T) {
	g := lineGraph(4)
	if c, p, ok := g.BidirectionalShortestPath(2, 2); !ok || c != 0 || len(p) != 1 {
		t.Fatal("self query wrong")
	}
	if _, _, ok := g.BidirectionalShortestPath(3, 0); ok {
		t.Fatal("found path against edge direction")
	}
}

func TestALTMatchesDijkstra(t *testing.T) {
	g, err := GenerateCity(DefaultCityParams(15, 15))
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	landmarks := []VertexID{0, VertexID(n / 4), VertexID(n / 2), VertexID(3 * n / 4)}
	alt := NewALT(g, landmarks)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		src := VertexID(rng.Intn(n))
		dst := VertexID(rng.Intn(n))
		dc, _, dok := g.ShortestPath(src, dst)
		ac, apath, aok := alt.ShortestPath(src, dst)
		if dok != aok {
			t.Fatalf("reachability disagreement src=%d dst=%d", src, dst)
		}
		if !dok {
			continue
		}
		if math.Abs(dc-ac) > 1e-6 {
			t.Fatalf("ALT cost %v != dijkstra %v (src=%d dst=%d)", ac, dc, src, dst)
		}
		if c, err := g.PathCost(apath); err != nil || math.Abs(c-ac) > 1e-6 {
			t.Fatalf("ALT path invalid: %v %v", c, err)
		}
	}
	if alt.MemoryBytes() <= 0 {
		t.Fatal("ALT memory not reported")
	}
}

func TestALTHeuristicAdmissible(t *testing.T) {
	g, err := GenerateCity(DefaultCityParams(10, 10))
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	alt := NewALT(g, []VertexID{0, VertexID(n - 1)})
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 100; i++ {
		v := VertexID(rng.Intn(n))
		tgt := VertexID(rng.Intn(n))
		d, _, ok := g.ShortestPath(v, tgt)
		if !ok {
			continue
		}
		if h := alt.heuristic(v, tgt); h > d+1e-6 {
			t.Fatalf("heuristic %v exceeds true distance %v (v=%d t=%d)", h, d, v, tgt)
		}
	}
}

func BenchmarkBidirectional(b *testing.B) {
	g, err := GenerateCity(DefaultCityParams(40, 40))
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = g.BidirectionalShortestPath(VertexID(i%n), VertexID((i*7919)%n))
	}
}

func BenchmarkALT(b *testing.B) {
	g, err := GenerateCity(DefaultCityParams(40, 40))
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumVertices()
	alt := NewALT(g, []VertexID{0, VertexID(n / 3), VertexID(n / 2), VertexID(2 * n / 3), VertexID(n - 1)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = alt.ShortestPath(VertexID(i%n), VertexID((i*7919)%n))
	}
}
