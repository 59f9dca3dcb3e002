package roadnet

import (
	"math/rand"
	"testing"

	"repro/internal/geo"
)

func TestGenerateRadialCityBasics(t *testing.T) {
	g, err := GenerateRadialCity(DefaultRadialCityParams(6, 12))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.NumVertices(), 1+6*12; got != want {
		t.Fatalf("vertices = %d, want %d", got, want)
	}
	if sccs := g.StronglyConnectedComponents(); len(sccs) != 1 {
		t.Fatalf("radial city has %d SCCs", len(sccs))
	}
}

func TestGenerateRadialCityDeterministic(t *testing.T) {
	p := DefaultRadialCityParams(4, 8)
	a, err := GenerateRadialCity(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateRadialCity(p)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.Point(VertexID(v)) != b.Point(VertexID(v)) {
			t.Fatalf("vertex %d differs", v)
		}
	}
}

func TestGenerateRadialCityInvalid(t *testing.T) {
	bad := []RadialCityParams{
		{Rings: 0, Spokes: 8, RingSpacingMeters: 100},
		{Rings: 3, Spokes: 2, RingSpacingMeters: 100},
		{Rings: 3, Spokes: 8, RingSpacingMeters: 0},
		{Rings: 3, Spokes: 8, RingSpacingMeters: 100, Jitter: 0.9},
		{Rings: 3, Spokes: 8, RingSpacingMeters: 100, CostNoise: -1},
	}
	for i, p := range bad {
		if _, err := GenerateRadialCity(p); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestRadialCityAllPairsRoutable(t *testing.T) {
	g, err := GenerateRadialCity(DefaultRadialCityParams(5, 10))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 40; i++ {
		src := VertexID(rng.Intn(g.NumVertices()))
		dst := VertexID(rng.Intn(g.NumVertices()))
		if _, _, ok := g.ShortestPath(src, dst); !ok {
			t.Fatalf("no route %d -> %d", src, dst)
		}
	}
}

func TestRadialCitySpokesAreFaster(t *testing.T) {
	// Crossing the city through the centre (spokes) should beat going
	// around the outer ring.
	p := DefaultRadialCityParams(6, 16)
	p.Jitter = 0
	p.CostNoise = 0
	g, err := GenerateRadialCity(p)
	if err != nil {
		t.Fatal(err)
	}
	// Opposite points on the outer ring.
	outer := 5
	a := VertexID(1 + outer*p.Spokes + 0)
	b := VertexID(1 + outer*p.Spokes + p.Spokes/2)
	cost, path, ok := g.ShortestPath(a, b)
	if !ok {
		t.Fatal("no path")
	}
	// The direct route through the centre is ~2 * 6 rings * 250 m * 0.8.
	through := 2 * 6 * p.RingSpacingMeters * 0.8
	if cost > through*1.3 {
		t.Fatalf("crossing cost %v, expected near %v (through centre)", cost, through)
	}
	// The path should pass near the centre.
	nearCentre := false
	c := geo.Point{Lat: p.CenterLat, Lng: p.CenterLng}
	for _, v := range path {
		if geo.Equirect(g.Point(v), c) < 2*p.RingSpacingMeters {
			nearCentre = true
			break
		}
	}
	if !nearCentre {
		t.Fatal("cross-city path avoided the centre spokes")
	}
}

func TestRadialCityWorksWithPartitioningStack(t *testing.T) {
	// The full indexing stack must run unchanged on the radial family.
	g, err := GenerateRadialCity(DefaultRadialCityParams(6, 12))
	if err != nil {
		t.Fatal(err)
	}
	idx := NewSpatialIndex(g, 200)
	if _, ok := idx.NearestVertex(g.Point(0)); !ok {
		t.Fatal("spatial index failed on radial city")
	}
	r := NewRouter(g, 16).AttachCH(BuildCH(g))
	if r.Cost(0, VertexID(g.NumVertices()-1)) <= 0 {
		t.Fatal("router failed on radial city")
	}
}
