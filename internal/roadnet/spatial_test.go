package roadnet

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geo"
)

func TestNearestVertexExact(t *testing.T) {
	g := gridGraph(5)
	idx := NewSpatialIndex(g, 150)
	for v := 0; v < g.NumVertices(); v++ {
		got, ok := idx.NearestVertex(g.Point(VertexID(v)))
		if !ok || got != VertexID(v) {
			t.Fatalf("NearestVertex of vertex %d point = %d, %v", v, got, ok)
		}
	}
}

func TestNearestVertexBruteForceAgreement(t *testing.T) {
	g, err := GenerateCity(DefaultCityParams(12, 12))
	if err != nil {
		t.Fatal(err)
	}
	idx := NewSpatialIndex(g, 200)
	rng := rand.New(rand.NewSource(5))
	min, max := g.Bounds()
	for i := 0; i < 100; i++ {
		p := geo.Point{
			Lat: min.Lat + rng.Float64()*(max.Lat-min.Lat),
			Lng: min.Lng + rng.Float64()*(max.Lng-min.Lng),
		}
		got, ok := idx.NearestVertex(p)
		if !ok {
			t.Fatal("no nearest vertex")
		}
		// Brute force.
		best := Invalid
		bestD := -1.0
		for v := 0; v < g.NumVertices(); v++ {
			d := geo.Equirect(p, g.Point(VertexID(v)))
			if best == Invalid || d < bestD {
				best, bestD = VertexID(v), d
			}
		}
		gotD := geo.Equirect(p, g.Point(got))
		if gotD > bestD+1e-9 {
			t.Fatalf("NearestVertex %d at %v m, brute force %d at %v m", got, gotD, best, bestD)
		}
	}
}

func TestNearestVertexOutsideBounds(t *testing.T) {
	g := gridGraph(4)
	idx := NewSpatialIndex(g, 100)
	// A point far outside the grid must still snap to something.
	if _, ok := idx.NearestVertex(geo.Point{Lat: 31, Lng: 105}); !ok {
		t.Fatal("NearestVertex failed outside bounds")
	}
}

func TestNearestVertexEmptyGraph(t *testing.T) {
	g := NewGraph(0)
	g.AddVertex(geo.Point{Lat: 30, Lng: 104}) // index needs >= 1 vertex for bounds
	idx := NewSpatialIndex(g, 100)
	if v, ok := idx.NearestVertex(geo.Point{Lat: 30, Lng: 104}); !ok || v != 0 {
		t.Fatalf("singleton NearestVertex = %d, %v", v, ok)
	}
}

func TestVerticesWithinMatchesBruteForce(t *testing.T) {
	g, err := GenerateCity(DefaultCityParams(12, 12))
	if err != nil {
		t.Fatal(err)
	}
	idx := NewSpatialIndex(g, 180)
	rng := rand.New(rand.NewSource(9))
	min, max := g.Bounds()
	for i := 0; i < 30; i++ {
		p := geo.Point{
			Lat: min.Lat + rng.Float64()*(max.Lat-min.Lat),
			Lng: min.Lng + rng.Float64()*(max.Lng-min.Lng),
		}
		radius := 100 + rng.Float64()*800
		got := idx.VerticesWithin(p, radius)
		var want []VertexID
		for v := 0; v < g.NumVertices(); v++ {
			if geo.Equirect(p, g.Point(VertexID(v))) <= radius {
				want = append(want, VertexID(v))
			}
		}
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		if len(got) != len(want) {
			t.Fatalf("VerticesWithin size %d, brute force %d (radius %v)", len(got), len(want), radius)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("VerticesWithin mismatch at %d: %d vs %d", j, got[j], want[j])
			}
		}
	}
}

// TestCellColsCoversTheDisc holds the disc-shaped scan (CellRows x CellCols)
// to the brute-force radius query where its conservative bound is tightest:
// radii exactly equal to some vertex's distance (that vertex sits on the
// disc's rim and must be found), radii below the vertex spacing, centres
// outside the grid, and a graph near the pole where longitude cells shrink.
func TestCellColsCoversTheDisc(t *testing.T) {
	city, err := GenerateCity(DefaultCityParams(12, 12))
	if err != nil {
		t.Fatal(err)
	}
	polar := NewGraph(0)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		polar.AddVertex(geo.Point{Lat: 88.9 + rng.Float64()*0.2, Lng: 10 + rng.Float64()*3})
	}
	for name, g := range map[string]*Graph{"city": city, "polar": polar} {
		for _, cell := range []float64{60, 180, 700} {
			idx := NewSpatialIndex(g, cell)
			min, max := g.Bounds()
			for i := 0; i < 300; i++ {
				p := geo.Point{
					Lat: min.Lat + (rng.Float64()*1.6-0.3)*(max.Lat-min.Lat),
					Lng: min.Lng + (rng.Float64()*1.6-0.3)*(max.Lng-min.Lng),
				}
				radius := []float64{1, 50, 400, 2500}[i%4] * (0.5 + rng.Float64())
				if i%3 == 0 {
					radius = geo.Equirect(p, g.Point(VertexID(rng.Intn(g.NumVertices()))))
				}
				got := idx.VerticesWithin(p, radius)
				sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
				var want []VertexID
				for v := 0; v < g.NumVertices(); v++ {
					if geo.Equirect(p, g.Point(VertexID(v))) <= radius {
						want = append(want, VertexID(v))
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s, %v m cells: VerticesWithin(%v, %v) found %d vertices, brute force %d", name, cell, p, radius, len(got), len(want))
				}
			}
		}
	}
}

func TestVerticesWithinZeroRadius(t *testing.T) {
	g := gridGraph(3)
	idx := NewSpatialIndex(g, 100)
	if vs := idx.VerticesWithin(g.Point(0), 0); vs != nil {
		t.Fatalf("zero radius returned %v", vs)
	}
}

func TestSpatialIndexDimensions(t *testing.T) {
	g := gridGraph(10)
	idx := NewSpatialIndex(g, 100)
	if idx.Rows() < 1 || idx.Cols() < 1 {
		t.Fatalf("degenerate grid %dx%d", idx.Rows(), idx.Cols())
	}
}

func BenchmarkNearestVertex(b *testing.B) {
	g, err := GenerateCity(DefaultCityParams(40, 40))
	if err != nil {
		b.Fatal(err)
	}
	idx := NewSpatialIndex(g, 250)
	min, max := g.Bounds()
	rng := rand.New(rand.NewSource(1))
	pts := make([]geo.Point, 1024)
	for i := range pts {
		pts[i] = geo.Point{
			Lat: min.Lat + rng.Float64()*(max.Lat-min.Lat),
			Lng: min.Lng + rng.Float64()*(max.Lng-min.Lng),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = idx.NearestVertex(pts[i%len(pts)])
	}
}

func BenchmarkVerticesWithin(b *testing.B) {
	g, err := GenerateCity(DefaultCityParams(40, 40))
	if err != nil {
		b.Fatal(err)
	}
	idx := NewSpatialIndex(g, 250)
	center := geo.Point{Lat: 30.6587, Lng: 104.0648}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = idx.VerticesWithin(center, 2500)
	}
}
