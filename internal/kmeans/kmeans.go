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
	"sync/atomic"
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

	// scans counts the distinct-point assignments whose bounds did not
	// settle them, so they folded the distance to some centroid other than
	// their own; tests read it to show the bounds prune.
	scans int
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
// bits are assigned once, triangle-inequality bounds skip the centroids a
// point provably cannot move to (see bounds), the leading zero coordinates
// of sparse vectors come from a per-centroid prefix fold, centroid sums skip
// +0 coordinates (a sum starts at +0, is never -0, and adding +0 leaves
// it), and a large assignment step is split over runtime.GOMAXPROCS(0)
// workers, each writing only its own points' slots and bounds.
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
	old := make([]float64, k*dim)
	b := newBounds(nd, k, dim)
	var prefix []float64
	for iter := 0; iter < opts.maxIter(); iter++ {
		res.Iterations = iter + 1
		prefix = ds.prefixFolds(prefix, cent, k, dim)
		var scans atomic.Int64
		forChunks(nd, nd*k*dim, func(lo, hi int) {
			var m int64
			for u := lo; u < hi; u++ {
				var scanned bool
				if b.elkan {
					next[u], scanned = b.elkanAssign(ds, points[ds.rep[u]], u, cur[u], cent, prefix)
				} else {
					next[u], scanned = b.hamerlyAssign(points[ds.rep[u]], u, cur[u], cent)
				}
				if scanned {
					m++
				}
			}
			scans.Add(m)
		})
		res.scans += int(scans.Load())
		if slices.Equal(cur, next) {
			res.Converged = true
			break
		}
		cur, next = next, cur
		copy(old, cent)
		// Recompute centroids: sums in input order, as the dense loop adds.
		clear(counts)
		clear(sums)
		for i, u := range ds.of {
			c := int(cur[u])
			counts[c]++
			ds.addTo(sums[c*dim:(c+1)*dim], points[i], int(u))
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
		b.moved(old, cent)
	}
	res.Assign = make([]int, n)
	for i, u := range ds.of {
		res.Assign[i] = int(cur[u])
	}
	return res, nil
}

// bounds holds the triangle-inequality bounds that let Lloyd's assignment
// skip distance folds without changing its result: Hamerly's (SDM 2010) one
// upper and one lower bound per distinct point for 2-D inputs, Elkan's
// (ICML 2003) one lower bound per distinct point and centroid otherwise.
// Every bound is on the true Euclidean distance, not its square:
//
//   - ub[u] >= the distance from u to its assigned centroid;
//   - Hamerly: lb[u] <= the distance from u to every other centroid;
//   - Elkan: lb[u*k+c] <= the distance from u to centroid c.
//
// After a centroid update each bound moves by a centroid's move, the
// distance between its old and new position inflated by moveInflate: ub by
// its own centroid's, each Elkan lb by its centroid's, Hamerly's lb by the
// largest. An empty cluster's reseed is such a move too, so it loosens every
// bound on the reseeded centroid by the distance it jumped. A point, or under Elkan one of its centroids, is skipped only when
// clears(ub, lb): the margin there is 4e-9 relative, while a float fold of
// dim squared terms is within dim·2⁻⁵³ (1.5e-14 at dim 134) of the true
// square, so a skipped centroid's fold is strictly above the assigned one's
// and could never have been the scan's first minimum. The first iteration,
// exact ties and points short of the margin take the scan.
//
// A bound need not come from a full fold: sqDistBelow's early-exit partial
// sum and the prefix table's entry never exceed the fold, every term being
// non-negative. The bounds update lazily, as each point's assignment starts,
// so each slot is written only by the chunk that owns its point.
type bounds struct {
	elkan   bool
	k       int
	ub, lb  []float64
	move    []float64 // per centroid, at the last update
	maxMove float64
	// Hamerly: half[c] is half the distance from centroid c to its nearest
	// other centroid, deflated by deflate. A point whose ub clears half[a]
	// is nearer its own centroid a than any other can be: by the triangle
	// inequality each is at least 2·half[a] - ub away.
	half []float64
}

const (
	boundEps    = 1e-9
	moveInflate = 1 + boundEps
	deflate     = 1 - boundEps
)

func clears(ub, lb float64) bool { return ub*(1+4*boundEps) < lb*(1-4*boundEps) }

// newBounds picks the scheme by dimension: a 2-D fold is two terms, so
// Hamerly's two bounds per point pay for themselves where k bounds would
// cost as much to maintain as the folds they save; a κ-dimensional fold
// costs far more than keeping a bound per centroid.
func newBounds(nd, k, dim int) *bounds {
	b := &bounds{elkan: dim != 2, k: k, ub: make([]float64, nd), move: make([]float64, k)}
	if b.elkan {
		b.lb = make([]float64, nd*k)
	} else {
		b.lb, b.half = make([]float64, nd), make([]float64, k)
	}
	return b
}

// moved records how far each centroid moved from old to cent and how far
// apart the moved centroids are.
func (b *bounds) moved(old, cent []float64) {
	k := b.k
	dim := len(cent) / k
	b.maxMove = 0
	for c := range b.move {
		m := math.Sqrt(sqDist(old[c*dim:(c+1)*dim], cent[c*dim:(c+1)*dim])) * moveInflate
		b.move[c] = m
		b.maxMove = max(b.maxMove, m)
	}
	for c := range b.half {
		b.half[c] = math.Inf(1)
	}
	for c := range b.half {
		for c2 := c + 1; c2 < k; c2++ {
			h := math.Sqrt(sqDist2(cent[2*c], cent[2*c+1], cent[2*c2], cent[2*c2+1])) / 2 * deflate
			b.half[c], b.half[c2] = min(b.half[c], h), min(b.half[c2], h)
		}
	}
}

// hamerlyAssign assigns distinct point u, at 2-D coordinates x and assigned
// a in the last pass (-1 before the first), and reports whether it took the
// full scan.
func (b *bounds) hamerlyAssign(x []float64, u int, a int32, cent []float64) (int32, bool) {
	if a >= 0 {
		ub, lb := b.ub[u]+b.move[a], b.lb[u]-b.maxMove
		b.lb[u] = lb
		z := max(lb, b.half[a])
		if !clears(ub, z) {
			// Tighten the upper bound to the assigned centroid's distance.
			ub = math.Sqrt(sqDist2(x[0], x[1], cent[2*a], cent[2*a+1]))
		}
		b.ub[u] = ub
		if clears(ub, z) {
			return a, false
		}
	}
	best, bestD, second := nearest(x, cent)
	b.ub[u], b.lb[u] = math.Sqrt(bestD), math.Sqrt(second)
	return best, true
}

// nearest is the first centroid at the least squared distance from the 2-D
// point x: Lloyd's strict-less scan in centroid order. It also returns that
// distance and the least over the other centroids.
func nearest(x, cent []float64) (int32, float64, float64) {
	best, bestD, second := 0, math.Inf(1), math.Inf(1)
	x0, x1 := x[0], x[1]
	for i := 0; i+1 < len(cent); i += 2 {
		if d := sqDist2(x0, x1, cent[i], cent[i+1]); d < bestD {
			best, bestD, second = i/2, d, bestD
		} else if d < second {
			second = d
		}
	}
	return int32(best), bestD, second
}

// elkanAssign assigns distinct point u, at coordinates x and assigned a in
// the last pass (-1 before the first): Lloyd's strict-less scan in centroid
// order over the centroids its bounds do not rule out, every kept distance
// the fold sqDist computes. It reports whether any centroid but a was
// folded.
func (b *bounds) elkanAssign(ds *distinct, x []float64, u int, a int32, cent, prefix []float64) (int32, bool) {
	k, dim := b.k, ds.dim
	lb := b.lb[u*k : (u+1)*k]
	f := int(ds.lead[u])
	stride := ds.maxLead + 1
	fold := func(c int, bound float64) float64 {
		var s float64
		if f > 0 {
			// The fold never decreases, so a prefix already at the bound
			// cannot end below it.
			if s = prefix[c*stride+f]; s >= bound {
				return s
			}
		}
		return sqDistBelow(s, x[f:], cent[c*dim+f:(c+1)*dim], bound)
	}
	best, bestD := int32(0), math.Inf(1)
	ub := math.Inf(1)
	var da float64
	if a >= 0 {
		ub = b.ub[u] + b.move[a]
		settled := true
		for c, m := range b.move {
			lb[c] -= m
			settled = settled && (int32(c) == a || clears(ub, lb[c]))
		}
		if settled {
			b.ub[u] = ub
			return a, false
		}
		da = fold(int(a), math.Inf(1))
		ub = math.Sqrt(da)
		lb[a] = ub
		// No centroid folding above da can win, so the scan starts from
		// a sentinel just above it: the strict-less scan still lands on the
		// first minimum, a included, and stops each fold early at the bound.
		best, bestD = a, math.Nextafter(da, math.Inf(1))
	}
	scanned := false
	for c := range lb {
		if int32(c) == a {
			if da < bestD {
				best, bestD = a, da
			}
			continue
		}
		if clears(ub, lb[c]) {
			continue
		}
		scanned = true
		d := fold(c, bestD)
		lb[c] = math.Sqrt(d)
		if d < bestD {
			best, bestD = int32(c), d
		}
	}
	b.ub[u] = math.Sqrt(bestD)
	return best, scanned
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
	// lead[u] is the index of distinct point u's first coordinate whose
	// bits are not +0, dim when there is none; maxLead is the largest, so
	// the prefix table needs maxLead+1 entries per centroid.
	lead    []int32
	maxLead int
	// nz[nzOff[u]:nzOff[u+1]] lists, in order, the coordinates of a sparse
	// distinct point u (at most half not +0) whose bits are not +0; the
	// list of a denser point is empty, as listing it would save nothing.
	nzOff, nz []int32
}

func group(points [][]float64) *distinct {
	dim := len(points[0])
	ds := &distinct{dim: dim, of: make([]int32, len(points)), nzOff: []int32{0}}
	// Distinct points hashed by their bits, with collisions chained through
	// chain (-1 ends a chain); nothing is allocated per point. nz collects
	// the current point's coordinates that are not +0.
	heads := make(map[uint64]int32)
	var chain, nz []int32
	for i, p := range points {
		nz = nz[:0]
		h := uint64(14695981039346656037)
		for d, x := range p {
			b := math.Float64bits(x)
			h = (h ^ b) * 1099511628211
			if b != 0 {
				nz = append(nz, int32(d))
			}
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
			if 2*len(nz) <= dim {
				ds.nz = append(ds.nz, nz...)
			}
			ds.nzOff = append(ds.nzOff, int32(len(ds.nz)))
			lead := dim
			if len(nz) > 0 {
				lead = int(nz[0])
			}
			ds.lead = append(ds.lead, int32(lead))
			ds.maxLead = max(ds.maxLead, lead)
		}
		ds.of[i] = u
	}
	return ds
}

// listed returns distinct point u's list of coordinates that are not +0,
// and whether it has one (false for a dense point).
func (ds *distinct) listed(u int) ([]int32, bool) {
	nz := ds.nz[ds.nzOff[u]:ds.nzOff[u+1]]
	return nz, len(nz) > 0 || int(ds.lead[u]) == ds.dim
}

// addTo adds point x, a copy of distinct point u, to row: coordinate by
// coordinate, skipping those that are +0.
func (ds *distinct) addTo(row, x []float64, u int) {
	if nz, ok := ds.listed(u); ok {
		for _, d := range nz {
			row[d] += x[d]
		}
		return
	}
	for d := ds.lead[u]; int(d) < len(x); d++ {
		if b := math.Float64bits(x[d]); b != 0 {
			row[d] += x[d]
		}
	}
}

// sparseSqDist is sqDist for x and y whose coordinates that are not +0 are
// listed in xs and ys: it folds only the coordinates either lists, in order,
// as every other term is (+0-+0)² = +0, which leaves a sum that starts at +0
// as it was.
func sparseSqDist(x []float64, xs []int32, y []float64, ys []int32) float64 {
	var s float64
	for len(xs) > 0 || len(ys) > 0 {
		var d int32
		switch {
		case len(ys) == 0 || len(xs) > 0 && xs[0] < ys[0]:
			d, xs = xs[0], xs[1:]
		case len(xs) == 0 || ys[0] < xs[0]:
			d, ys = ys[0], ys[1:]
		default:
			d, xs, ys = xs[0], xs[1:], ys[1:]
		}
		t := x[d] - y[d]
		s += t * t
	}
	return s
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

// seedPlusPlus picks the initial centroids with the k-means++ strategy: the
// first uniformly, each next with probability proportional to squared
// distance from the nearest already-chosen centroid. Distances are computed
// per distinct point; the total and the pick still walk every input point
// in order, so the float sums and the draws are the dense loop's.
func (ds *distinct) seedPlusPlus(points, centroids [][]float64, rng *rand.Rand) {
	n := len(points)
	d2 := make([]float64, len(ds.rep))
	for u := range d2 {
		d2[u] = math.Inf(1)
	}
	pick := rng.Intn(n)
	for next := range centroids {
		if next > 0 {
			var total float64
			for _, u := range ds.of {
				total += d2[u]
			}
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
		}
		c := centroids[next]
		copy(c, points[pick])
		cs, sparse := ds.listed(int(ds.of[pick]))
		work := len(d2)
		if !sparse {
			work *= ds.dim
		}
		forChunks(len(d2), work, func(lo, hi int) { ds.closer(points, d2[lo:hi], lo, c, cs, sparse) })
	}
}

// closer lowers d2[i], the least squared distance from distinct point lo+i
// to a centroid so far, to its sqDist from c, a copy of a point whose list
// is cs if sparse, where that is less. A dense fold of more than two
// coordinates stops early at d2[i]: no shorter than d2[i], it could not
// have replaced it.
func (ds *distinct) closer(points [][]float64, d2 []float64, lo int, c []float64, cs []int32, sparse bool) {
	for i := range d2 {
		u := lo + i
		x := points[ds.rep[u]]
		var d float64
		if len(x) == 2 {
			d = sqDist2(x[0], x[1], c[0], c[1])
		} else if xs, ok := ds.listed(u); sparse && ok {
			d = sparseSqDist(x, xs, c, cs)
		} else {
			d = sqDistBelow(0, x, c, d2[i])
		}
		if d < d2[i] {
			d2[i] = d
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
