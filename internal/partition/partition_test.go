package partition

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/trace"
)

// testCity builds a deterministic small city plus snapped historical trips.
func testCity(t testing.TB, rows, cols, tripsPerHour int) (*roadnet.Graph, *roadnet.SpatialIndex, []OD) {
	t.Helper()
	g, err := roadnet.GenerateCity(roadnet.DefaultCityParams(rows, cols))
	if err != nil {
		t.Fatal(err)
	}
	idx := roadnet.NewSpatialIndex(g, 250)
	min, max := g.Bounds()
	center := geo.Midpoint(min, max)
	extent := geo.Equirect(geo.Point{Lat: min.Lat, Lng: min.Lng}, geo.Point{Lat: min.Lat, Lng: max.Lng})
	ds, err := trace.Generate(trace.Workday, trace.GenParams{
		Center:           center,
		ExtentMeters:     extent,
		TripsPerHourPeak: tripsPerHour,
		UniformFrac:      0.15,
		MinTripMeters:    200,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ods := snapDataset(idx, ds)
	if len(ods) == 0 {
		t.Fatal("no snapped trips")
	}
	return g, idx, ods
}

func snapDataset(idx *roadnet.SpatialIndex, ds *trace.Dataset) []OD {
	pairs := make([]struct{ Origin, Dest geo.Point }, len(ds.Trips))
	for i, tr := range ds.Trips {
		pairs[i] = struct{ Origin, Dest geo.Point }{tr.Origin, tr.Dest}
	}
	return SnapTrips(idx, pairs)
}

func buildBipartite(t testing.TB, kappa int) (*roadnet.Graph, *roadnet.SpatialIndex, *Partitioning) {
	t.Helper()
	g, idx, ods := testCity(t, 14, 14, 150)
	p := DefaultParams(kappa)
	p.KTrans = 5
	pt, err := BuildBipartite(g, ods, p)
	if err != nil {
		t.Fatal(err)
	}
	return g, idx, pt
}

func TestBipartiteCoversAllVertices(t *testing.T) {
	g, _, pt := buildBipartite(t, 12)
	total := 0
	for p := 0; p < pt.NumPartitions(); p++ {
		total += len(pt.Vertices(ID(p)))
	}
	if total != g.NumVertices() {
		t.Fatalf("partitions cover %d of %d vertices", total, g.NumVertices())
	}
}

func TestBipartitePartitionCountNearKappa(t *testing.T) {
	_, _, pt := buildBipartite(t, 12)
	k := pt.NumPartitions()
	if k < 6 || k > 24 {
		t.Fatalf("partition count %d far from kappa 12", k)
	}
}

func TestBipartiteLandmarksInOwnPartition(t *testing.T) {
	_, _, pt := buildBipartite(t, 12)
	for p := 0; p < pt.NumPartitions(); p++ {
		l := pt.Landmark(ID(p))
		if pt.PartitionOf(l) != ID(p) {
			t.Fatalf("landmark of %d is in partition %d", p, pt.PartitionOf(l))
		}
	}
	if len(pt.Landmarks()) != pt.NumPartitions() {
		t.Fatal("Landmarks length mismatch")
	}
}

func TestBipartiteLandmarkCostConsistent(t *testing.T) {
	g, _, pt := buildBipartite(t, 10)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		a := ID(rng.Intn(pt.NumPartitions()))
		b := ID(rng.Intn(pt.NumPartitions()))
		want, _, ok := g.ShortestPath(pt.Landmark(a), pt.Landmark(b))
		got := pt.LandmarkCost(a, b)
		if !ok {
			if !math.IsInf(got, 1) {
				t.Fatalf("LandmarkCost(%d,%d) = %v for unreachable", a, b, got)
			}
			continue
		}
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("LandmarkCost(%d,%d) = %v, want %v", a, b, got, want)
		}
	}
	for p := 0; p < pt.NumPartitions(); p++ {
		if pt.LandmarkCost(ID(p), ID(p)) != 0 {
			t.Fatalf("self landmark cost nonzero for %d", p)
		}
	}
}

func TestBipartiteAdjacencySymmetricAndReal(t *testing.T) {
	g, _, pt := buildBipartite(t, 10)
	adjSet := make([]map[ID]bool, pt.NumPartitions())
	for p := 0; p < pt.NumPartitions(); p++ {
		adjSet[p] = map[ID]bool{}
		for _, q := range pt.Adjacent(ID(p)) {
			if q == ID(p) {
				t.Fatalf("partition %d adjacent to itself", p)
			}
			adjSet[p][q] = true
		}
	}
	for p := range adjSet {
		for q := range adjSet[p] {
			if !adjSet[q][ID(p)] {
				t.Fatalf("adjacency not symmetric: %d->%d", p, q)
			}
		}
	}
	// Every cross-partition road edge must be reflected in adjacency.
	for v := 0; v < g.NumVertices(); v++ {
		pv := pt.PartitionOf(roadnet.VertexID(v))
		for _, a := range g.Out(roadnet.VertexID(v)) {
			pw := pt.PartitionOf(a.To)
			if pv != pw && !adjSet[pv][pw] {
				t.Fatalf("edge (%d,%d) crosses %d|%d but not adjacent", v, a.To, pv, pw)
			}
		}
	}
}

func TestBipartiteTransitionVectorsAreDistributions(t *testing.T) {
	g, _, pt := buildBipartite(t, 10)
	for v := 0; v < g.NumVertices(); v++ {
		var sum float64
		for _, x := range pt.TransitionVector(roadnet.VertexID(v)) {
			if x < 0 {
				t.Fatalf("negative transition prob at vertex %d", v)
			}
			sum += float64(x)
		}
		if math.Abs(sum-1) > 1e-3 {
			t.Fatalf("vertex %d transition sums to %v", v, sum)
		}
	}
	for p := 0; p < pt.NumPartitions(); p++ {
		var sum float64
		for _, x := range pt.PartitionTransitionVector(ID(p)) {
			sum += float64(x)
		}
		if math.Abs(sum-1) > 1e-3 {
			t.Fatalf("partition %d transition sums to %v", p, sum)
		}
	}
}

func TestBipartiteGeographicCoherence(t *testing.T) {
	// Vertices should on average be closer to their own partition centre
	// than to a random other partition centre.
	g, _, pt := buildBipartite(t, 12)
	rng := rand.New(rand.NewSource(3))
	closer, farther := 0, 0
	for i := 0; i < 500; i++ {
		v := roadnet.VertexID(rng.Intn(g.NumVertices()))
		own := pt.PartitionOf(v)
		other := ID(rng.Intn(pt.NumPartitions()))
		if other == own {
			continue
		}
		dOwn := geo.Equirect(g.Point(v), pt.Center(own))
		dOther := geo.Equirect(g.Point(v), pt.Center(other))
		if dOwn <= dOther {
			closer++
		} else {
			farther++
		}
	}
	if closer <= farther*3 {
		t.Fatalf("weak geographic coherence: %d closer vs %d farther", closer, farther)
	}
}

func TestBipartiteDeterministic(t *testing.T) {
	g, _, ods := testCity(t, 10, 10, 80)
	p := DefaultParams(8)
	p.KTrans = 4
	a, err := BuildBipartite(g, ods, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildBipartite(g, ods, p)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumPartitions() != b.NumPartitions() {
		t.Fatalf("nondeterministic partition count: %d vs %d", a.NumPartitions(), b.NumPartitions())
	}
	for v := 0; v < g.NumVertices(); v++ {
		if a.PartitionOf(roadnet.VertexID(v)) != b.PartitionOf(roadnet.VertexID(v)) {
			t.Fatalf("vertex %d assigned differently across runs", v)
		}
	}
}

func TestBipartiteInvalidParams(t *testing.T) {
	g, _, ods := testCity(t, 6, 6, 20)
	bad := []Params{
		{Kappa: 1, KTrans: 1},
		{Kappa: 10, KTrans: 0},
		{Kappa: 10, KTrans: 10},
	}
	for i, p := range bad {
		if _, err := BuildBipartite(g, ods, p); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := BuildBipartite(roadnet.NewGraph(0), ods, DefaultParams(5)); err == nil {
		t.Error("expected error for empty graph")
	}
}

func TestBipartiteNoTrips(t *testing.T) {
	// With no historical data the partitioner must still work (pure
	// geographic clustering with uniform transition priors).
	g, _, _ := testCity(t, 8, 8, 10)
	p := DefaultParams(6)
	p.KTrans = 3
	pt, err := BuildBipartite(g, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if pt.NumPartitions() < 2 {
		t.Fatalf("degenerate partitioning: %d partitions", pt.NumPartitions())
	}
	v := roadnet.VertexID(0)
	var sum float64
	for _, x := range pt.TransitionVector(v) {
		sum += float64(x)
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Fatalf("uniform prior sums to %v", sum)
	}
}

func TestGridPartitioning(t *testing.T) {
	g, _, ods := testCity(t, 12, 12, 80)
	pt, err := BuildGrid(g, ods, 16)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for p := 0; p < pt.NumPartitions(); p++ {
		total += len(pt.Vertices(ID(p)))
	}
	if total != g.NumVertices() {
		t.Fatalf("grid covers %d of %d vertices", total, g.NumVertices())
	}
	if k := pt.NumPartitions(); k < 8 || k > 32 {
		t.Fatalf("grid produced %d partitions for kappa 16", k)
	}
	// Grid partitions must be geographically disjoint rectangles: a
	// vertex's nearest centre should usually be its own.
	rng := rand.New(rand.NewSource(4))
	mismatches := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		v := roadnet.VertexID(rng.Intn(g.NumVertices()))
		own := pt.PartitionOf(v)
		best, bestD := None, math.Inf(1)
		for p := 0; p < pt.NumPartitions(); p++ {
			if d := geo.Equirect(g.Point(v), pt.Center(ID(p))); d < bestD {
				best, bestD = ID(p), d
			}
		}
		if best != own {
			mismatches++
		}
	}
	if mismatches > trials/4 {
		t.Fatalf("grid geographically incoherent: %d/%d mismatches", mismatches, trials)
	}
}

func TestGridErrors(t *testing.T) {
	g, _, _ := testCity(t, 6, 6, 10)
	if _, err := BuildGrid(g, nil, 0); err == nil {
		t.Error("expected error for kappa 0")
	}
	if _, err := BuildGrid(roadnet.NewGraph(0), nil, 4); err == nil {
		t.Error("expected error for empty graph")
	}
}

func TestPartitionsNear(t *testing.T) {
	g, idx, pt := buildBipartite(t, 12)
	center := g.Point(roadnet.VertexID(g.NumVertices() / 2))
	near := pt.PartitionsNear(idx, center, 1000)
	if len(near) == 0 {
		t.Fatal("no partitions near a graph vertex")
	}
	seen := map[ID]bool{}
	for _, p := range near {
		if seen[p] {
			t.Fatalf("duplicate partition %d", p)
		}
		seen[p] = true
	}
	// The vertex's own partition must be included.
	v, _ := idx.NearestVertex(center)
	if !seen[pt.PartitionOf(v)] {
		t.Fatal("own partition missing from PartitionsNear")
	}
	// Tiny radius still returns at least one partition.
	if tiny := pt.PartitionsNear(idx, center, 0.001); len(tiny) == 0 {
		t.Fatal("tiny radius returned nothing")
	}
}

func TestLandmarkVector(t *testing.T) {
	g, _, pt := buildBipartite(t, 10)
	a, b := ID(0), ID(1)
	v := pt.LandmarkVector(a, b)
	if v.Origin() != g.Point(pt.Landmark(a)) || v.Dest() != g.Point(pt.Landmark(b)) {
		t.Fatal("LandmarkVector endpoints wrong")
	}
}

func TestMemoryBytesPositiveAndScales(t *testing.T) {
	_, _, small := buildBipartite(t, 6)
	_, _, large := buildBipartite(t, 18)
	ms, ml := small.MemoryBytes(), large.MemoryBytes()
	if ms <= 0 || ml <= 0 {
		t.Fatalf("non-positive memory: %d, %d", ms, ml)
	}
	if ml <= ms/2 {
		t.Fatalf("more partitions reported much less memory: %d vs %d", ml, ms)
	}
}

func TestSnapTripsDropsDegenerate(t *testing.T) {
	g, idx, _ := testCity(t, 6, 6, 10)
	p0 := g.Point(0)
	pairs := []struct{ Origin, Dest geo.Point }{
		{p0, p0}, // snaps to same vertex -> dropped
		{p0, g.Point(roadnet.VertexID(g.NumVertices() - 1))},
	}
	ods := SnapTrips(idx, pairs)
	if len(ods) != 1 {
		t.Fatalf("SnapTrips kept %d trips, want 1", len(ods))
	}
	if ods[0].O == ods[0].D {
		t.Fatal("degenerate trip survived")
	}
}

func TestBipartiteRespectsMaxRounds(t *testing.T) {
	g, _, ods := testCity(t, 8, 8, 30)
	p := DefaultParams(6)
	p.KTrans = 3
	p.MaxRounds = 1
	if _, err := BuildBipartite(g, ods, p); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkBuildBipartite times the whole partitioner: a 20x20 city with a
// light history, and the steady workload's 56x56 world (κ = 125) built as
// server.New builds it, whose transition vectors are mostly zero or repeated
// — the step the benchmark ledger reports as partition.build_s — and the
// same construction on a 120x120 city (κ = 574):
//
//	go test -run '^$' -bench 'BuildBipartite/city=56x56' -benchmem ./internal/partition
func BenchmarkBuildBipartite(b *testing.B) {
	b.Run("city=20x20", func(b *testing.B) {
		g, _, ods := testCity(b, 20, 20, 200)
		p := DefaultParams(20)
		p.KTrans = 8
		benchBuild(b, g, ods, p)
	})
	for _, rows := range []int{56, 120} {
		b.Run(fmt.Sprintf("city=%dx%d", rows, rows), func(b *testing.B) {
			g, ods, p := serverWorld(b, rows)
			benchBuild(b, g, ods, p)
		})
	}
}

func benchBuild(b *testing.B, g *roadnet.Graph, ods []OD, p Params) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildBipartite(g, ods, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildGrid(b *testing.B) {
	g, _, ods := testCity(b, 20, 20, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildGrid(g, ods, 20); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGeoJSONWellFormed(t *testing.T) {
	_, _, pt := buildBipartite(t, 10)
	data, err := pt.GeoJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Type     string `json:"type"`
		Features []struct {
			Type     string `json:"type"`
			Geometry struct {
				Type string `json:"type"`
			} `json:"geometry"`
			Properties map[string]interface{} `json:"properties"`
		} `json:"features"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Type != "FeatureCollection" {
		t.Fatalf("type = %q", doc.Type)
	}
	kinds := map[string]int{}
	for _, f := range doc.Features {
		if f.Type != "Feature" {
			t.Fatalf("feature type %q", f.Type)
		}
		kinds[f.Properties["kind"].(string)]++
	}
	k := pt.NumPartitions()
	if kinds["partition"] != k {
		t.Fatalf("partition features = %d, want %d", kinds["partition"], k)
	}
	if kinds["landmark"] != k {
		t.Fatalf("landmark features = %d, want %d", kinds["landmark"], k)
	}
	if kinds["landmark-edge"] == 0 {
		t.Fatal("no landmark-graph edges emitted")
	}
}
