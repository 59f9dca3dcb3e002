// Package kmeans implements the k-means clustering used by mT-Share's
// bipartite map partitioning (§IV-B1 of the paper): spatial clustering of
// road-graph vertices by coordinates and transition clustering of vertices
// by their transition-probability vectors.
//
// The implementation is deterministic given a seed (k-means++ seeding with
// a caller-supplied PRNG source) and operates on generic float64 feature
// vectors.
package kmeans

import (
	"fmt"
	"math"
	"math/rand"
)

// Result holds the outcome of a k-means run.
type Result struct {
	// Assign maps each input point index to its cluster in [0, K).
	Assign []int
	// Centroids holds the final cluster centroids.
	Centroids [][]float64
	// Iterations is how many Lloyd iterations ran before convergence or
	// the iteration cap.
	Iterations int
	// Converged reports whether assignments stabilised before the cap.
	Converged bool
}

// K returns the number of clusters in the result.
func (r *Result) K() int { return len(r.Centroids) }

// Sizes returns the number of points in each cluster.
func (r *Result) Sizes() []int {
	s := make([]int, len(r.Centroids))
	for _, c := range r.Assign {
		s[c]++
	}
	return s
}

// Options configures a k-means run.
type Options struct {
	// MaxIterations caps Lloyd iterations. Zero means the default (50).
	MaxIterations int
	// Seed drives k-means++ seeding and empty-cluster repair.
	Seed int64
}

func (o Options) maxIter() int {
	if o.MaxIterations <= 0 {
		return 50
	}
	return o.MaxIterations
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// sqDistBelow is sqDist for callers that only ask "is it below bound?": it
// compares the running sum against bound every 8 dimensions and returns
// early once it is reached. Squared terms are non-negative, so partial sums
// never decrease: an early return is >= bound exactly when the full sum
// would be, and a full run adds the same terms in the same order as sqDist —
// every d < bound decision is unchanged. Keep the single accumulator; a
// second one would change the float association. sqDist stays its own loop:
// expressed as sqDistBelow(a, b, +Inf) the assignment loop measured 15 %
// slower (BenchmarkClusterTransitionVectors).
func sqDistBelow(a, b []float64, bound float64) float64 {
	var s float64
	for len(a) > 8 {
		for i, x := range a[:8] {
			d := x - b[i]
			s += d * d
		}
		if s >= bound {
			return s
		}
		a, b = a[8:], b[8:]
	}
	for i, x := range a {
		d := x - b[i]
		s += d * d
	}
	return s
}

// Cluster partitions points into k clusters with Lloyd's algorithm and
// k-means++ seeding. Every point is a feature vector; all points must have
// the same dimensionality. If k >= len(points), each point gets its own
// cluster (and extra clusters collapse onto duplicates of the last point,
// mirroring the paper's behaviour of tiny partitions in sparse areas).
func Cluster(points [][]float64, k int, opts Options) (*Result, error) {
	n := len(points)
	if n == 0 {
		return nil, fmt.Errorf("kmeans: no points")
	}
	if k <= 0 {
		return nil, fmt.Errorf("kmeans: k must be positive, got %d", k)
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("kmeans: point %d has dim %d, want %d", i, len(p), dim)
		}
	}
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	centroids := seedPlusPlus(points, k, rng)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	res := &Result{Assign: assign, Centroids: centroids}
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
				if d := sqDistBelow(p, centroids[c], bestD); d < bestD {
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
		// Recompute centroids.
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
				// Empty cluster: reseed on the point farthest from its
				// centroid, the standard repair that keeps k clusters alive.
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
	return res, nil
}

// seedPlusPlus picks k initial centroids with the k-means++ strategy:
// the first uniformly, each next with probability proportional to squared
// distance from the nearest already-chosen centroid.
func seedPlusPlus(points [][]float64, k int, rng *rand.Rand) [][]float64 {
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
			pick = rng.Intn(n) // all points coincide with a centroid
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

// Inertia returns the total within-cluster sum of squared distances, the
// quantity Lloyd's algorithm monotonically decreases; tests use it to
// verify convergence quality.
func Inertia(points [][]float64, res *Result) float64 {
	var s float64
	for i, p := range points {
		s += sqDist(p, res.Centroids[res.Assign[i]])
	}
	return s
}
