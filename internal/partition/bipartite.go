package partition

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/kmeans"
	"repro/internal/roadnet"
)

// Params configures the bipartite map partitioner.
type Params struct {
	// Kappa is the target number of spatial partitions (κ). The final
	// count can deviate slightly because step 3 rounds per-transition-
	// cluster partition counts. The paper's default is 150.
	Kappa int
	// KTrans is the number of transition clusters (k_t < κ); the paper
	// sets 20.
	KTrans int
	// MaxRounds caps the outer refinement loop (the paper iterates until
	// the spatial clusters stop changing; real data converges in a few
	// rounds). Zero means the default (8).
	MaxRounds int
	// Seed drives all k-means seeding.
	Seed int64
}

// DefaultParams returns the paper's defaults for the given κ.
func DefaultParams(kappa int) Params {
	return Params{Kappa: kappa, KTrans: 20, Seed: 1}
}

func (p Params) maxRounds() int {
	if p.MaxRounds <= 0 {
		return 8
	}
	return p.MaxRounds
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.Kappa < 2:
		return fmt.Errorf("partition: Kappa must be >= 2, got %d", p.Kappa)
	case p.KTrans < 1:
		return fmt.Errorf("partition: KTrans must be >= 1, got %d", p.KTrans)
	case p.KTrans >= p.Kappa:
		return fmt.Errorf("partition: KTrans (%d) must be < Kappa (%d)", p.KTrans, p.Kappa)
	}
	return nil
}

// BuildBipartite runs the paper's bipartite map partitioning (§IV-B1):
//
//  0. k-means on vertex coordinates into κ spatial clusters;
//  1. per-vertex transition-probability vectors over the current spatial
//     clusters, from historical trips;
//  2. k-means on transition vectors into k_t transition clusters;
//  3. within each transition cluster of size n, k-means on coordinates
//     into round(n·κ/N) spatial clusters;
//
// repeating 1–3 until the spatial clusters stabilise or MaxRounds is hit.
func BuildBipartite(g *roadnet.Graph, trips []OD, p Params) (*Partitioning, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("partition: empty graph")
	}
	coords := make([][]float64, n)
	flat := make([]float64, 2*n)
	for v := 0; v < n; v++ {
		pt := g.Point(roadnet.VertexID(v))
		// Scale longitude so Euclidean distance in feature space matches
		// ground distance; Chengdu sits near 30.7°N where cos ≈ 0.86.
		c := flat[2*v : 2*v+2 : 2*v+2]
		c[0], c[1] = pt.Lat, pt.Lng*0.86
		coords[v] = c
	}
	// Step 0: initial spatial clustering.
	res, err := kmeans.Cluster(coords, p.Kappa, kmeans.Options{Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	assign := make([]ID, n)
	for v, c := range res.Assign {
		assign[v] = ID(c)
	}
	numClusters := res.K()

	// kmeans.Cluster only reads its points and keeps none of them, so the
	// rounds below hand it shared and reused rows. A round makes at most
	// κ + k_t clusters: each transition cluster's count rounds up by less
	// than one.
	tv := newTransitions(n, trips, p.Kappa+p.KTrans)
	newAssign := make([]ID, n)
	members := make([]int, n)
	for round := 0; round < p.maxRounds(); round++ {
		// Step 1: transition-probability vectors over current clusters.
		tvec := tv.vectors(numClusters, assign)
		// Step 2: transition clustering.
		tres, err := kmeans.Cluster(tvec, p.KTrans, kmeans.Options{Seed: p.Seed + int64(round) + 1})
		if err != nil {
			return nil, err
		}
		// Step 3: geo-clustering within each transition cluster, one
		// independent k-means per cluster over the worker pool; labels are
		// handed out in transition-cluster order afterwards.
		kt := tres.K()
		off := bucket(members, tres.Assign, kt)
		geoRes := make([]*kmeans.Result, kt)
		errs := make([]error, kt)
		roadnet.ParallelDo(kt, runtime.GOMAXPROCS(0), func(_, tc int) {
			ms := members[off[tc]:off[tc+1]]
			if len(ms) == 0 {
				return
			}
			// round(n·κ/N + 1/2) with the paper's ⌊x+1/2⌋ rounding,
			// clamped to at least one cluster.
			sub := int(float64(len(ms))*float64(p.Kappa)/float64(n) + 0.5)
			if sub < 1 {
				sub = 1
			}
			if sub > len(ms) {
				sub = len(ms)
			}
			pts := make([][]float64, len(ms))
			for i, v := range ms {
				pts[i] = coords[v]
			}
			geoRes[tc], errs[tc] = kmeans.Cluster(pts, sub, kmeans.Options{Seed: p.Seed + int64(round)*1000 + int64(tc)})
		})
		next := 0
		for tc, gres := range geoRes {
			if errs[tc] != nil {
				return nil, errs[tc]
			}
			if gres == nil {
				continue
			}
			for i, v := range members[off[tc]:off[tc+1]] {
				newAssign[v] = ID(next + gres.Assign[i])
			}
			next += gres.K()
		}
		// Cluster IDs are not stable across rounds, so compare the
		// co-clustering structure rather than raw labels.
		converged := numClusters == next && sameClustering(assign, newAssign)
		copy(assign, newAssign)
		numClusters = next
		if converged {
			break
		}
	}
	return finalize(g, assign, numClusters, trips)
}

// bucket lists the points of each of k clusters in dst, cluster after
// cluster and in point order within one, and returns the k+1 offsets of
// the clusters' runs.
func bucket(dst []int, assign []int, k int) []int {
	off := make([]int, k+1)
	for _, c := range assign {
		off[c+1]++
	}
	for c := 0; c < k; c++ {
		off[c+1] += off[c]
	}
	fill := slices.Clone(off[:k])
	for v, c := range assign {
		dst[fill[c]] = v
		fill[c]++
	}
	return off
}

// transitions computes step 1's vectors round after round. Trip origins do
// not move between rounds, so only the vertices that originated a trip get
// rows of their own, cut from one buffer reused every round and sized for
// the largest cluster count up front; every other vertex shares one zero
// row that nothing writes.
type transitions struct {
	trips  []OD
	totals []float64 // trips originating at each vertex
	rows   int       // vertices with totals > 0
	vecs   [][]float64
	buf    []float64
}

func newTransitions(n int, trips []OD, maxK int) *transitions {
	t := &transitions{trips: trips, totals: make([]float64, n), vecs: make([][]float64, n)}
	for _, tr := range trips {
		t.totals[tr.O]++
	}
	for _, c := range t.totals {
		if c > 0 {
			t.rows++
		}
	}
	t.buf = make([]float64, 0, (t.rows+1)*maxK)
	return t
}

// vectors returns B_i for every vertex over the k clusters of assign: the
// empirical distribution over clusters of the destinations of trips
// originating at the vertex; the zero vector when the vertex has no
// outgoing trips. The rows are valid until the next call.
func (t *transitions) vectors(k int, assign []ID) [][]float64 {
	size := (t.rows + 1) * k
	t.buf = slices.Grow(t.buf[:0], size)[:size]
	clear(t.buf)
	zero, next := t.buf[:k:k], k
	for v, c := range t.totals {
		if c == 0 {
			t.vecs[v] = zero
			continue
		}
		t.vecs[v] = t.buf[next : next+k : next+k]
		next += k
	}
	for _, tr := range t.trips {
		t.vecs[tr.O][assign[tr.D]]++
	}
	for v, c := range t.totals {
		if c == 0 {
			continue
		}
		for i := range t.vecs[v] {
			t.vecs[v][i] /= c
		}
	}
	return t.vecs
}

// sameClustering reports whether two assignments induce the same grouping
// of vertices, ignoring label permutation.
func sameClustering(a, b []ID) bool {
	fwd := make(map[ID]ID)
	rev := make(map[ID]ID)
	for v := range a {
		if m, ok := fwd[a[v]]; ok {
			if m != b[v] {
				return false
			}
		} else {
			fwd[a[v]] = b[v]
		}
		if m, ok := rev[b[v]]; ok {
			if m != a[v] {
				return false
			}
		} else {
			rev[b[v]] = a[v]
		}
	}
	return true
}
