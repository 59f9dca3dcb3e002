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
	"runtime"
	"slices"
	"sync"
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

// sqDistBelow continues sqDist's fold from the partial sum s for callers that
// only ask "is it below bound?": it compares the running sum against bound
// every 8 dimensions and returns early once it is reached. Squared terms are
// non-negative, so partial sums never decrease: an early return is >= bound
// exactly when the full sum would be, and a full run adds the same terms in
// the same order as sqDist — every d < bound decision is unchanged. Keep the
// single accumulator; a second one would change the float association.
// sqDist stays its own loop: expressed as sqDistBelow(0, a, b, +Inf) the
// assignment loop measured 15 % slower (BenchmarkClusterTransitionVectors).
//
// Lloyd's loop starts the fold past a point's leading zero coordinates: for
// coordinates 0..f-1 all zero, sqDist's first f terms are (0-c_d)², whose
// left fold depends on the centroid alone and is read from a per-centroid
// prefix table (prefixFolds), so sqDistBelow(prefix[f], a[f:], b[f:], bound)
// runs the very operations sqDist would have.
func sqDistBelow(s float64, a, b []float64, bound float64) float64 {
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

// sqDist2 is sqDist for two dimensions, unrolled: 0 + d0² is d0², so the
// sum is the same two-term left fold.
func sqDist2(x0, x1, c0, c1 float64) float64 {
	d0 := x0 - c0
	d1 := x1 - c1
	s := d0 * d0
	s += d1 * d1
	return s
}

// minParallelWork is the assignment step, in distance terms (distinct points
// × centroids × dimensions), below which starting workers costs more than
// splitting the step saves.
const minParallelWork = 1 << 15

// Cluster partitions points into k clusters with Lloyd's algorithm and
// k-means++ seeding. Every point is a feature vector; all points must have
// the same dimensionality. k is clamped to len(points); if that leaves
// k >= the number of distinct points, every distinct point ends on its own
// centroid and the surplus clusters stay empty on duplicates of them.
//
// The result is bit-identical to the textbook dense loop (every point ×
// every centroid × every dimension, strict-less scan in centroid order), but
// it does only the work whose result can differ: points with equal float64
// bits are assigned once, the leading zero coordinates of sparse vectors
// come from a per-centroid prefix fold, centroid sums skip zero coordinates
// (adding ±0 to a sum that starts at +0 never changes it), and a large
// assignment step is split over runtime.GOMAXPROCS(0) workers, each writing
// only its own points' slots.
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
	ds := group(points)
	nd := len(ds.rep)
	rng := rand.New(rand.NewSource(opts.Seed))
	cent := make([]float64, k*dim)
	centroids := make([][]float64, k)
	for c := range centroids {
		centroids[c] = cent[c*dim : (c+1)*dim : (c+1)*dim]
	}
	ds.seedPlusPlus(points, centroids, rng)
	res := &Result{Centroids: centroids}

	cur, next := make([]int32, nd), make([]int32, nd)
	for u := range cur {
		cur[u] = -1
	}
	counts := make([]int, k)
	sums := make([]float64, k*dim)
	var prefix []float64
	for iter := 0; iter < opts.maxIter(); iter++ {
		res.Iterations = iter + 1
		prefix = ds.prefixFolds(prefix, cent, k, dim)
		forChunks(nd, nd*k*dim, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				next[u] = ds.nearest(points[ds.rep[u]], u, cent, prefix, k)
			}
		})
		if slices.Equal(cur, next) {
			res.Converged = true
			break
		}
		cur, next = next, cur
		// Recompute centroids: sums in input order, as the dense loop adds.
		clear(counts)
		clear(sums)
		for i, u := range ds.of {
			c := int(cur[u])
			counts[c]++
			row := sums[c*dim : (c+1)*dim]
			for d := ds.lead[u]; int(d) < dim; d++ {
				if x := points[i][d]; x != 0 {
					row[d] += x
				}
			}
		}
		for c, row := range centroids {
			if counts[c] == 0 {
				// Empty cluster: reseed on the point farthest from its
				// centroid, the standard repair that keeps k clusters alive.
				// Distinct points are numbered by first appearance, so the
				// first distinct maximum is the first input-order one.
				far, farD := 0, -1.0
				for u, i := range ds.rep {
					if d := sqDist(points[i], centroids[cur[u]]); d > farD {
						far, farD = i, d
					}
				}
				copy(row, points[far])
				continue
			}
			for d := range row {
				row[d] = sums[c*dim+d] / float64(counts[c])
			}
		}
	}
	res.Assign = make([]int, n)
	for i, u := range ds.of {
		res.Assign[i] = int(cur[u])
	}
	return res, nil
}

// distinct groups a point set by exact float64 bits. Points with equal bits
// run identical arithmetic against every centroid, so Lloyd's loop assigns
// each distinct point once and reads the result back for all its copies.
type distinct struct {
	dim int
	// of maps an input point to its distinct point; rep maps a distinct
	// point to its first input index, so distinct points are numbered in
	// order of first appearance.
	of  []int32
	rep []int
	// lead[u] is the index of distinct point u's first non-zero coordinate,
	// dim when it is all zero; maxLead is the largest, so the prefix table
	// needs maxLead+1 entries per centroid.
	lead    []int32
	maxLead int
}

func group(points [][]float64) *distinct {
	dim := len(points[0])
	ds := &distinct{dim: dim, of: make([]int32, len(points))}
	// Distinct points hashed by their bits, with collisions chained through
	// chain (-1 ends a chain); nothing is allocated per point.
	heads := make(map[uint64]int32)
	var chain []int32
	for i, p := range points {
		h := uint64(14695981039346656037)
		for _, x := range p {
			h = (h ^ math.Float64bits(x)) * 1099511628211
		}
		head, ok := heads[h]
		if !ok {
			head = -1
		}
		u := head
		for u >= 0 && !sameBits(points[ds.rep[u]], p) {
			u = chain[u]
		}
		if u < 0 {
			u = int32(len(ds.rep))
			chain = append(chain, head)
			heads[h] = u
			ds.rep = append(ds.rep, i)
			lead := dim
			for d, x := range p {
				if x != 0 {
					lead = d
					break
				}
			}
			ds.lead = append(ds.lead, int32(lead))
			ds.maxLead = max(ds.maxLead, lead)
		}
		ds.of[i] = u
	}
	return ds
}

func sameBits(a, b []float64) bool {
	for d, x := range a {
		if math.Float64bits(x) != math.Float64bits(b[d]) {
			return false
		}
	}
	return true
}

// prefixFolds fills, for each centroid c, prefix[c*(maxLead+1)+f] with the
// left fold of (0-c_d)² over d < f — sqDist's first f terms for any point
// whose first f coordinates are zero. It returns nil when no point has a
// leading zero.
func (ds *distinct) prefixFolds(prefix, cent []float64, k, dim int) []float64 {
	if ds.maxLead == 0 {
		return nil
	}
	stride := ds.maxLead + 1
	prefix = slices.Grow(prefix[:0], k*stride)[:k*stride]
	for c := 0; c < k; c++ {
		row, ctr := prefix[c*stride:(c+1)*stride], cent[c*dim:]
		var s float64
		for f := range row {
			row[f] = s
			if f < ds.maxLead {
				d := 0 - ctr[f]
				s += d * d
			}
		}
	}
	return prefix
}

// nearest is the first centroid at the least squared distance from x, the
// coordinates of distinct point u: Lloyd's strict-less scan in centroid
// order, with every kept distance the full fold sqDist computes.
func (ds *distinct) nearest(x []float64, u int, cent, prefix []float64, k int) int32 {
	dim := ds.dim
	best, bestD := 0, math.Inf(1)
	if dim == 2 {
		x0, x1 := x[0], x[1]
		for i := 0; i+1 < len(cent); i += 2 {
			if d := sqDist2(x0, x1, cent[i], cent[i+1]); d < bestD {
				best, bestD = i/2, d
			}
		}
		return int32(best)
	}
	f := int(ds.lead[u])
	stride := ds.maxLead + 1
	for c := 0; c < k; c++ {
		var s float64
		if f > 0 {
			// The fold never decreases, so a prefix already at bestD
			// cannot end below it.
			if s = prefix[c*stride+f]; s >= bestD {
				continue
			}
		}
		if d := sqDistBelow(s, x[f:], cent[c*dim+f:(c+1)*dim], bestD); d < bestD {
			best, bestD = c, d
		}
	}
	return int32(best)
}

// seedPlusPlus picks the initial centroids with the k-means++ strategy: the
// first uniformly, each next with probability proportional to squared
// distance from the nearest already-chosen centroid. Distances are computed
// per distinct point; the total and the pick still walk every input point
// in order, so the float sums and the draws are the dense loop's.
func (ds *distinct) seedPlusPlus(points, centroids [][]float64, rng *rand.Rand) {
	n := len(points)
	copy(centroids[0], points[rng.Intn(n)])
	d2 := make([]float64, len(ds.rep))
	for u, i := range ds.rep {
		d2[u] = sqDist(points[i], centroids[0])
	}
	for next := 1; next < len(centroids); next++ {
		var total float64
		for _, u := range ds.of {
			total += d2[u]
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n) // all points coincide with a centroid
		} else {
			r := rng.Float64() * total
			for i, u := range ds.of {
				r -= d2[u]
				if r <= 0 {
					pick = i
					break
				}
			}
		}
		c := centroids[next]
		copy(c, points[pick])
		for u, i := range ds.rep {
			if d := sqDist(points[i], c); d < d2[u] {
				d2[u] = d
			}
		}
	}
}

// forChunks runs fn over [0, n) in contiguous chunks, one goroutine per
// chunk across runtime.GOMAXPROCS(0) workers when work is large enough to
// pay for them, and returns when every chunk is done.
func forChunks(n, work int, fn func(lo, hi int)) {
	w := min(runtime.GOMAXPROCS(0), n)
	if w <= 1 || work < minParallelWork {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(i*n/w, (i+1)*n/w)
	}
	wg.Wait()
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
