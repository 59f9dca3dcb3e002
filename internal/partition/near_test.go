package partition

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// everywhere is a radius beyond any city; a radius query that wide scans every
// cell of the grid.
const everywhere = 1e7

// partitionsNearBrute is PartitionsNear's definition with nothing skipped:
// every vertex of the graph in grid scan order (a radius query wide enough
// to cover the grid yields exactly that order), its distance tested, its
// partition named on first sight; the nearest vertex's partition when the
// disc is empty.
func partitionsNearBrute(pt *Partitioning, idx *roadnet.SpatialIndex, p geo.Point, radius float64) []ID {
	var out []ID
	if radius > 0 {
		for _, v := range idx.VerticesWithin(p, everywhere) {
			if id := pt.PartitionOf(v); geo.Equirect(p, pt.Graph().Point(v)) <= radius && !slices.Contains(out, id) {
				out = append(out, id)
			}
		}
	}
	if len(out) == 0 {
		if v, ok := idx.NearestVertex(p); ok {
			out = append(out, pt.PartitionOf(v))
		}
	}
	return out
}

// TestPartitionsNearMatchesBruteForce holds the cell walk to the brute-force
// definition, result order included, for both builders: points on vertices,
// between them, on the grid's edge and outside it; radii from below the
// vertex spacing to beyond the city.
func TestPartitionsNearMatchesBruteForce(t *testing.T) {
	g, idx, pt := buildBipartite(t, 12)
	grid, err := BuildGrid(g, nil, 20)
	if err != nil {
		t.Fatal(err)
	}
	min, max := g.Bounds()
	if all := idx.VerticesWithin(geo.Midpoint(min, max), everywhere); len(all) != g.NumVertices() {
		t.Fatalf("the oracle's scan covers %d of %d vertices", len(all), g.NumVertices())
	}
	rng := rand.New(rand.NewSource(5))
	radii := []float64{-1, 0, 0.001, 30, 120, 400, 1000, 2500, 1e5}
	for i := 0; i < 400; i++ {
		// Up to 40 % of the extent outside the bounding box on every side.
		p := geo.Point{
			Lat: min.Lat + (rng.Float64()*1.8-0.4)*(max.Lat-min.Lat),
			Lng: min.Lng + (rng.Float64()*1.8-0.4)*(max.Lng-min.Lng),
		}
		switch i % 4 {
		case 1:
			p = g.Point(roadnet.VertexID(rng.Intn(g.NumVertices())))
		case 2:
			p = geo.Point{Lat: min.Lat, Lng: max.Lng}
		}
		radius := radii[rng.Intn(len(radii))]
		for name, part := range map[string]*Partitioning{"bipartite": pt, "grid": grid} {
			got, want := part.PartitionsNear(idx, p, radius), partitionsNearBrute(part, idx, p, radius)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: PartitionsNear(%v, %v) = %v, brute force %v", name, p, radius, got, want)
			}
			if withPrefix := part.AppendPartitionsNear([]ID{None}, idx, p, radius); !slices.Equal(withPrefix[1:], want) || withPrefix[0] != None {
				t.Fatalf("%s: AppendPartitionsNear does not append: %v", name, withPrefix)
			}
		}
	}
}

// TestPartitionsNearFollowsTheIndex queries one partitioning through two
// spatial indexes in turn: the per-cell summary is rebuilt for whichever
// index a query brings, so neither sees the other's cells.
func TestPartitionsNearFollowsTheIndex(t *testing.T) {
	g, idx, pt := buildBipartite(t, 12)
	coarse := roadnet.NewSpatialIndex(g, 900)
	p := g.Point(roadnet.VertexID(g.NumVertices() / 3))
	for i := 0; i < 3; i++ {
		for _, ix := range []*roadnet.SpatialIndex{idx, coarse} {
			if got, want := pt.PartitionsNear(ix, p, 800), partitionsNearBrute(pt, ix, p, 800); !slices.Equal(got, want) {
				t.Fatalf("round %d: got %v, brute force %v", i, got, want)
			}
		}
	}
}

// BenchmarkPartitionsNear times the lookup on the repo benchmark's 56x56
// city at the default search range (partition.near_us in the ledger).
func BenchmarkPartitionsNear(b *testing.B) {
	g, idx, ods := testCity(b, 56, 56, 400)
	pp := DefaultParams(g.NumVertices() / 25)
	pt, err := BuildBipartite(g, ods, pp)
	if err != nil {
		b.Fatal(err)
	}
	pt.IndexCells(idx)
	n := g.NumVertices()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.PartitionsNear(idx, g.Point(roadnet.VertexID(i*7919%n)), 2500)
	}
}
