package kmeans

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/trace"
)

// clusterReference is the dense Lloyd loop Cluster must reproduce bit for
// bit: every point against every centroid over every dimension with the
// full sqDist fold, strict-less in centroid order, centroid sums over all
// coordinates. repairs counts empty-cluster reseeds, so a test can show it
// reached that path.
func clusterReference(points [][]float64, k int, opts Options) (res *Result, repairs int) {
	n := len(points)
	dim := len(points[0])
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	centroids := seedPlusPlusReference(points, k, rng)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	res = &Result{Assign: assign, Centroids: centroids}
	counts := make([]int, k)
	sums := make([][]float64, k)
	for i := range sums {
		sums[i] = make([]float64, dim)
	}
	for iter := 0; iter < opts.maxIter(); iter++ {
		res.Iterations = iter + 1
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c := range centroids {
				if d := sqDist(p, centroids[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed {
			res.Converged = true
			break
		}
		for c := range counts {
			counts[c] = 0
			for d := range sums[c] {
				sums[c][d] = 0
			}
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for d := range p {
				sums[c][d] += p[d]
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				repairs++
				far, farD := 0, -1.0
				for i, p := range points {
					if d := sqDist(p, centroids[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				copy(centroids[c], points[far])
				continue
			}
			for d := range centroids[c] {
				centroids[c][d] = sums[c][d] / float64(counts[c])
			}
		}
	}
	return res, repairs
}

func seedPlusPlusReference(points [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(points)
	dim := len(points[0])
	centroids := make([][]float64, 0, k)
	first := rng.Intn(n)
	c0 := make([]float64, dim)
	copy(c0, points[first])
	centroids = append(centroids, c0)
	d2 := make([]float64, n)
	for i, p := range points {
		d2[i] = sqDist(p, c0)
	}
	for len(centroids) < k {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n)
		} else {
			r := rng.Float64() * total
			for i, d := range d2 {
				r -= d
				if r <= 0 {
					pick = i
					break
				}
			}
		}
		c := make([]float64, dim)
		copy(c, points[pick])
		centroids = append(centroids, c)
		for i, p := range points {
			if d := sqDist(p, c); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centroids
}

// cityTransitionVectors builds the transition vectors the partitioner's
// step 2 clusters on a rows×rows generated city: spatial clusters of the
// vertices, then per vertex the distribution of its historical trips'
// destination clusters — mostly zero rows and repeated one-hot rows.
func cityTransitionVectors(t testing.TB, rows int) [][]float64 {
	t.Helper()
	g, err := roadnet.GenerateCity(roadnet.DefaultCityParams(rows, rows))
	if err != nil {
		t.Fatal(err)
	}
	idx := roadnet.NewSpatialIndex(g, 250)
	min, max := g.Bounds()
	ds, err := trace.Generate(trace.Workday, trace.GenParams{
		Center:           geo.Midpoint(min, max),
		ExtentMeters:     geo.Equirect(geo.Point{Lat: min.Lat, Lng: min.Lng}, geo.Point{Lat: min.Lat, Lng: max.Lng}),
		TripsPerHourPeak: 400,
		UniformFrac:      0.15,
		Seed:             2,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	coords := make([][]float64, n)
	for v := range coords {
		p := g.Point(roadnet.VertexID(v))
		coords[v] = []float64{p.Lat, p.Lng * 0.86}
	}
	k := n / 25
	spatial, _ := clusterReference(coords, k, Options{Seed: 1})
	vecs := make([][]float64, n)
	for v := range vecs {
		vecs[v] = make([]float64, k)
	}
	totals := make([]float64, n)
	for _, tr := range ds.Trips {
		o, ok1 := idx.NearestVertex(tr.Origin)
		d, ok2 := idx.NearestVertex(tr.Dest)
		if ok1 && ok2 && o != d {
			vecs[o][spatial.Assign[d]]++
			totals[o]++
		}
	}
	for v, row := range vecs {
		for c := range row {
			if totals[v] > 0 {
				row[c] /= totals[v]
			}
		}
	}
	return vecs
}

func sameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("Iterations/Converged = %d/%v, reference %d/%v", got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			t.Fatalf("Assign[%d] = %d, reference %d", i, got.Assign[i], want.Assign[i])
		}
	}
	if got.K() != want.K() {
		t.Fatalf("K = %d, reference %d", got.K(), want.K())
	}
	for c, row := range want.Centroids {
		for d, x := range row {
			if y := got.Centroids[c][d]; math.Float64bits(y) != math.Float64bits(x) {
				t.Fatalf("centroid %d[%d] = %v (%016x), reference %v (%016x)", c, d, y, math.Float64bits(y), x, math.Float64bits(x))
			}
		}
	}
}

// tieSet is five points whose 2-means at seed 9 starts from centroids
// (-2, ±1) and (0, 0): the first pass puts (0, 0) on the second centroid,
// the update moves the two to (-2, 0) and (2, 0), exactly as far from
// (0, 0), and the second pass must move it to the first. dim pads the
// points with zero coordinates.
func tieSet(dim int) [][]float64 {
	var pts [][]float64
	for _, p := range [][2]float64{{-2, 1}, {-2, -1}, {0, 0}, {3, 1}, {3, -1}} {
		x := make([]float64, dim)
		x[0], x[1] = p[0], p[1]
		pts = append(pts, x)
	}
	return pts
}

// tied reports whether some point is at the same least squared distance
// from two of res's centroids.
func tied(points [][]float64, res *Result) bool {
	for _, p := range points {
		best, n := math.Inf(1), 0
		for _, c := range res.Centroids {
			if d := sqDist(p, c); d < best {
				best, n = d, 1
			} else if d == best {
				n++
			}
		}
		if n > 1 {
			return true
		}
	}
	return false
}

// TestClusterMatchesReference runs Cluster against the dense Lloyd loop on
// the inputs its shortcuts depend on — repeated and zero rows, sparse rows,
// dense rows, signed zeros, k at and past the point and distinct counts, the
// empty-cluster repair, the iteration cap and an exact tie met after the
// first pass — serially and split over workers, and demands identical
// assignments, centroid bits, iteration counts and convergence flags. On the
// large inputs the bounds must also have settled points without a scan, so
// a case cannot pass by scanning everything.
func TestClusterMatchesReference(t *testing.T) {
	tvec := cityTransitionVectors(t, 28)
	tvec56 := cityTransitionVectors(t, 56)
	dense2, _ := blobs(3000, 40, 2, 11)
	many2, _ := blobs(2400, 24, 2, 13)
	dense9, _ := blobs(600, 6, 9, 12)
	same := make([][]float64, 50)
	zero := make([][]float64, 50)
	for i := range same {
		same[i] = []float64{0, 3, 0, 4, 0, 0, 0, 0, 0, 1}
		zero[i] = make([]float64, 12)
	}
	// Five distinct points in 30 copies: k = 8 exceeds the distinct count,
	// so seeding repeats centroids and Lloyd's loop must repair empties.
	few := make([][]float64, 30)
	for i := range few {
		few[i] = []float64{0, 0, float64(i % 5), float64(i%5) * 2}
	}
	// -0 and +0 differ in bits but not in value: the rows are distinct
	// points whose folds and sums must still match the dense loop's.
	signed := make([][]float64, 40)
	for i := range signed {
		z := math.Copysign(0, float64(i%2)-0.5)
		signed[i] = []float64{z, float64(i % 4), z, 0, float64(i%3) * z}
	}
	cases := []struct {
		name       string
		points     [][]float64
		k          int
		opts       Options
		wantRepair bool
		wantTie    bool
		wantPruned bool
	}{
		{"transition-vectors", tvec, 20, Options{Seed: 2}, false, false, true},
		{"transition-vectors-seed9", tvec, 12, Options{Seed: 9}, false, false, true},
		{"transition-vectors-cap3", tvec, 20, Options{Seed: 2, MaxIterations: 3}, false, false, false},
		{"transition-vectors-56", tvec56, 20, Options{Seed: 2}, false, false, true},
		{"dense-2d", dense2, 40, Options{Seed: 3}, false, false, true},
		{"dense-2d-cap1", dense2, 40, Options{Seed: 3, MaxIterations: 1}, false, false, false},
		{"dense-2d-k64", many2, 64, Options{Seed: 4}, false, false, true},
		{"dense-9d", dense9, 7, Options{Seed: 4}, false, false, true},
		{"tie-2d", tieSet(2), 2, Options{Seed: 9}, false, true, false},
		{"tie-3d", tieSet(3), 2, Options{Seed: 9}, false, true, false},
		{"signed-zeros", signed, 3, Options{Seed: 5}, false, false, false},
		{"all-identical", same, 4, Options{Seed: 5}, true, false, false},
		{"all-zero", zero, 3, Options{Seed: 6}, true, false, false},
		{"k-above-n", dense9[:5], 9, Options{Seed: 7}, false, false, false},
		{"k-above-distinct", few, 8, Options{Seed: 8}, true, false, false},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, repairs := clusterReference(tc.points, tc.k, tc.opts)
			if tc.wantRepair && repairs == 0 {
				t.Fatal("the reference never repaired an empty cluster; the case no longer covers that path")
			}
			if first, _ := clusterReference(tc.points, tc.k, Options{Seed: tc.opts.Seed, MaxIterations: 1}); tc.wantTie && !tied(tc.points, first) {
				t.Fatal("the reference's second pass meets no exact tie; the case no longer covers ties")
			}
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				got, err := Cluster(tc.points, tc.k, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, got, want)
				if nd := len(group(tc.points).rep); tc.wantPruned && got.scans >= nd*got.Iterations {
					t.Fatalf("%d scans in %d iterations of %d distinct points: the bounds settled nothing", got.scans, got.Iterations, nd)
				}
			}
		})
	}
}

// BenchmarkClusterCityTransitionVectors clusters the transition vectors of
// the repo benchmark's 56x56 world into 20 clusters, the partitioner's
// step 2 on real data (BenchmarkClusterTransitionVectors' dense blobs have
// no zero or repeated rows).
func BenchmarkClusterCityTransitionVectors(b *testing.B) {
	tvec := cityTransitionVectors(b, 56)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(tvec, 20, Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
