package kmeans

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// blobs generates n points around k well-separated centers in dim
// dimensions.
func blobs(n, k, dim int, seed int64) (points [][]float64, trueLabel []int) {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for d := range centers[c] {
			centers[c][d] = float64(c*100) + rng.Float64()
		}
	}
	points = make([][]float64, n)
	trueLabel = make([]int, n)
	for i := range points {
		c := rng.Intn(k)
		trueLabel[i] = c
		points[i] = make([]float64, dim)
		for d := range points[i] {
			points[i][d] = centers[c][d] + rng.NormFloat64()
		}
	}
	return points, trueLabel
}

func TestClusterSeparatedBlobs(t *testing.T) {
	points, truth := blobs(300, 3, 2, 1)
	res, err := Cluster(points, 3, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge on trivially separable data")
	}
	// Clusters must be pure: every pair in the same true blob must share a
	// k-means cluster. Check via a mapping blob -> cluster.
	blobToCluster := map[int]int{}
	for i := range points {
		b := truth[i]
		c := res.Assign[i]
		if prev, ok := blobToCluster[b]; ok && prev != c {
			t.Fatalf("blob %d split across clusters %d and %d", b, prev, c)
		}
		blobToCluster[b] = c
	}
	if len(blobToCluster) != 3 {
		t.Fatalf("mapped %d blobs", len(blobToCluster))
	}
}

func TestClusterDeterministic(t *testing.T) {
	points, _ := blobs(200, 4, 3, 2)
	r1, err := Cluster(points, 4, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Cluster(points, 4, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Assign {
		if r1.Assign[i] != r2.Assign[i] {
			t.Fatalf("nondeterministic assignment at %d", i)
		}
	}
}

func TestClusterErrors(t *testing.T) {
	if _, err := Cluster(nil, 3, Options{}); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := Cluster([][]float64{{1, 2}}, 0, Options{}); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, err := Cluster([][]float64{{1, 2}, {1}}, 1, Options{}); err == nil {
		t.Fatal("expected error for ragged input")
	}
}

func TestClusterKLargerThanN(t *testing.T) {
	points := [][]float64{{0}, {10}, {20}}
	res, err := Cluster(points, 10, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K() != 3 {
		t.Fatalf("K = %d, want clamped to 3", res.K())
	}
	// With k == n every point should sit on its own centroid.
	if in := Inertia(points, res); in > 1e-12 {
		t.Fatalf("inertia = %v, want 0", in)
	}
}

func TestClusterSingleCluster(t *testing.T) {
	points, _ := blobs(50, 2, 2, 3)
	res, err := Cluster(points, 1, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Assign {
		if a != 0 {
			t.Fatal("k=1 produced assignment != 0")
		}
	}
	// Centroid must equal the global mean.
	var mean [2]float64
	for _, p := range points {
		mean[0] += p[0]
		mean[1] += p[1]
	}
	mean[0] /= float64(len(points))
	mean[1] /= float64(len(points))
	if math.Abs(res.Centroids[0][0]-mean[0]) > 1e-9 || math.Abs(res.Centroids[0][1]-mean[1]) > 1e-9 {
		t.Fatalf("centroid %v != mean %v", res.Centroids[0], mean)
	}
}

func TestClusterIdenticalPoints(t *testing.T) {
	points := make([][]float64, 20)
	for i := range points {
		points[i] = []float64{3, 4}
	}
	res, err := Cluster(points, 4, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if in := Inertia(points, res); in != 0 {
		t.Fatalf("identical points inertia = %v", in)
	}
}

func TestClusterAllPointsAssigned(t *testing.T) {
	f := func(seed int64) bool {
		points, _ := blobs(100, 3, 2, seed)
		res, err := Cluster(points, 5, Options{Seed: seed})
		if err != nil {
			return false
		}
		if len(res.Assign) != len(points) {
			return false
		}
		for _, a := range res.Assign {
			if a < 0 || a >= res.K() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestClusterSizesSumToN(t *testing.T) {
	points, _ := blobs(137, 4, 3, 5)
	res, err := Cluster(points, 6, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range res.Sizes() {
		total += s
	}
	if total != 137 {
		t.Fatalf("sizes sum = %d, want 137", total)
	}
}

func TestInertiaDecreasesWithMoreClusters(t *testing.T) {
	points, _ := blobs(400, 5, 2, 8)
	var prev float64 = math.Inf(1)
	for _, k := range []int{1, 2, 5, 10} {
		res, err := Cluster(points, k, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		in := Inertia(points, res)
		if in > prev*1.05 { // allow slight non-monotonicity from local optima
			t.Fatalf("inertia increased substantially at k=%d: %v -> %v", k, prev, in)
		}
		prev = in
	}
}

func TestMaxIterationsRespected(t *testing.T) {
	points, _ := blobs(500, 8, 4, 4)
	res, err := Cluster(points, 8, Options{Seed: 1, MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("Iterations = %d, want 1", res.Iterations)
	}
}

func BenchmarkClusterSpatial(b *testing.B) {
	points, _ := blobs(2000, 20, 2, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(points, 20, Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterTransitionVectors(b *testing.B) {
	// Transition clustering operates on high-dimensional probability
	// vectors (dim = kappa = 150 in the paper's default).
	points, _ := blobs(2000, 20, 150, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(points, 20, Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSqDistBelowDecidesLikeSqDist: the bounded distance may stop early,
// but "is it below the bound?" must answer exactly as the full sum does, and
// a sum that does come in below the bound must be the full sum bit for bit —
// Lloyd's assignment keeps it as the next bound. The fold may start past a
// run of leading zero coordinates from the prefix table's partial sum.
func TestSqDistBelowDecidesLikeSqDist(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dim := range []int{1, 2, 7, 8, 9, 16, 17, 40, 132} {
		for i := 0; i < 2000; i++ {
			a, b := make([]float64, dim), make([]float64, dim)
			f := rng.Intn(dim + 1)
			for d := range a {
				a[d], b[d] = rng.Float64(), rng.Float64()
				if d < f {
					a[d] = 0
				}
			}
			ds := group([][]float64{a})
			prefix := ds.prefixFolds(nil, b, 1, dim)
			lead, start := int(ds.lead[0]), 0.0
			if lead > 0 {
				start = prefix[lead]
			}
			full := sqDist(a, b)
			for _, bound := range []float64{0, full * rng.Float64(), full, math.Nextafter(full, 2*full+1), 2 * full, math.Inf(1)} {
				got := sqDistBelow(start, a[lead:], b[lead:], bound)
				if (got < bound) != (full < bound) {
					t.Fatalf("dim %d bound %v: bounded %v, full %v disagree on < bound", dim, bound, got, full)
				}
				if got < bound && got != full {
					t.Fatalf("dim %d bound %v: bounded %v != full %v", dim, bound, got, full)
				}
			}
		}
	}
}
