// Package partition implements mT-Share's bipartite map partitioning
// (§IV-B1 of the paper): road-graph vertices are grouped by both geography
// and the transition patterns mined from historical trips, yielding
// partitions, per-partition landmarks (Definition 7), a landmark graph
// (Definition 8) with a landmark-to-landmark travel-cost table, and the
// per-vertex transition-probability vectors reused by probabilistic
// routing (Alg. 4). A uniform-grid partitioner is provided as the baseline
// used by T-Share/pGreedyDP and by the Table V ablation.
package partition

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// ID identifies a partition. IDs are dense, starting at 0.
type ID int32

// None is a sentinel ID denoting "no partition".
const None ID = -1

// OD is a historical trip snapped to road-network vertices; the transition
// statistics are mined from a slice of these.
type OD struct {
	O, D roadnet.VertexID
}

// SnapTrips snaps dataset trip endpoints to their nearest road vertices.
func SnapTrips(idx *roadnet.SpatialIndex, trips []struct{ Origin, Dest geo.Point }) []OD {
	out := make([]OD, 0, len(trips))
	for _, t := range trips {
		o, ok1 := idx.NearestVertex(t.Origin)
		d, ok2 := idx.NearestVertex(t.Dest)
		if ok1 && ok2 && o != d {
			out = append(out, OD{O: o, D: d})
		}
	}
	return out
}

// Partitioning is the immutable result of a map-partitioning run. All
// methods are safe for concurrent use.
type Partitioning struct {
	g      *roadnet.Graph
	assign []ID                 // vertex -> partition
	parts  [][]roadnet.VertexID // partition -> member vertices
	center []geo.Point          // partition -> centroid of member positions

	landmark []roadnet.VertexID // partition -> landmark vertex
	lmCost   [][]float64        // landmark-to-landmark network cost table
	adj      [][]ID             // landmark graph adjacency

	// trans[v] is vertex v's transition-probability vector over the final
	// partitions; rows sum to 1 (or are all zero if the vertex never
	// originated a historical trip and no smoothing applied).
	trans [][]float32
	// partTrans[p] aggregates trans over the vertices of p (mean), used to
	// seed probabilities for vertices without data.
	partTrans [][]float32
	// originW[p] is the fraction of historical trips originating in p —
	// the demand prior probabilistic cruising steers idle taxis by.
	originW []float64

	// cells caches the per-cell summary of the spatial index PartitionsNear
	// was last prepared for (see IndexCells).
	cells atomic.Pointer[cellIndex]
}

// NumPartitions returns the number of partitions.
func (pt *Partitioning) NumPartitions() int { return len(pt.parts) }

// Graph returns the underlying road graph.
func (pt *Partitioning) Graph() *roadnet.Graph { return pt.g }

// PartitionOf returns the partition containing vertex v.
func (pt *Partitioning) PartitionOf(v roadnet.VertexID) ID { return pt.assign[v] }

// Vertices returns the member vertices of partition p. The slice must not
// be modified.
func (pt *Partitioning) Vertices(p ID) []roadnet.VertexID { return pt.parts[p] }

// Center returns the centroid of partition p's vertex positions.
func (pt *Partitioning) Center(p ID) geo.Point { return pt.center[p] }

// Landmark returns the landmark vertex of partition p (Definition 7).
func (pt *Partitioning) Landmark(p ID) roadnet.VertexID { return pt.landmark[p] }

// Landmarks returns all landmark vertices indexed by partition.
func (pt *Partitioning) Landmarks() []roadnet.VertexID { return pt.landmark }

// LandmarkCost returns the road-network travel cost between the landmarks
// of partitions a and b (meters); +Inf if unreachable.
func (pt *Partitioning) LandmarkCost(a, b ID) float64 { return pt.lmCost[a][b] }

// Adjacent returns the partitions adjacent to p in the landmark graph
// (Definition 8): those connected to p by at least one road edge.
func (pt *Partitioning) Adjacent(p ID) []ID { return pt.adj[p] }

// TransitionVector returns vertex v's transition-probability vector over
// all partitions. The slice must not be modified.
func (pt *Partitioning) TransitionVector(v roadnet.VertexID) []float32 { return pt.trans[v] }

// PartitionTransitionVector returns the mean transition vector of partition
// p's vertices. The slice must not be modified.
func (pt *Partitioning) PartitionTransitionVector(p ID) []float32 { return pt.partTrans[p] }

// OriginWeight returns the fraction of historical trips that originated in
// partition p (uniform when no trip data was supplied).
func (pt *Partitioning) OriginWeight(p ID) float64 { return pt.originW[p] }

// MemoryBytes estimates the heap footprint of the partitioning, reported
// in the Table IV memory-overhead comparison.
func (pt *Partitioning) MemoryBytes() int64 {
	var b int64
	b += int64(len(pt.assign)) * 4
	for _, p := range pt.parts {
		b += int64(len(p))*4 + 24
	}
	b += int64(len(pt.center)) * 16
	b += int64(len(pt.landmark)) * 4
	for _, row := range pt.lmCost {
		b += int64(len(row))*8 + 24
	}
	for _, a := range pt.adj {
		b += int64(len(a))*4 + 24
	}
	for _, tr := range pt.trans {
		b += int64(len(tr))*4 + 24
	}
	for _, tr := range pt.partTrans {
		b += int64(len(tr))*4 + 24
	}
	if ci := pt.cells.Load(); ci != nil {
		b += int64(len(ci.off)+len(ci.parts)) * 4
	}
	return b
}

// cellIndex summarises one spatial index's grid for PartitionsNear: the
// distinct partitions owning a vertex of each cell. Immutable once published.
type cellIndex struct {
	idx   *roadnet.SpatialIndex
	off   []int32 // row-major cell -> start of its partitions in parts; len cells+1
	parts []ID
}

// IndexCells builds the per-cell summary PartitionsNear walks idx with, one
// pass over the vertices. match.NewEngine calls it at construction; a query
// through an unprepared index builds it on first use.
func (pt *Partitioning) IndexCells(idx *roadnet.SpatialIndex) { pt.cellsFor(idx) }

func (pt *Partitioning) cellsFor(idx *roadnet.SpatialIndex) *cellIndex {
	if ci := pt.cells.Load(); ci != nil && ci.idx == idx {
		return ci
	}
	ci := &cellIndex{idx: idx}
	for cell, cols := 0, idx.Cols(); cell < idx.Rows()*cols; cell++ {
		ci.off = append(ci.off, int32(len(ci.parts)))
		for _, v := range idx.CellVertices(cell/cols, cell%cols) {
			if id := pt.assign[v]; !slices.Contains(ci.parts[ci.off[cell]:], id) {
				ci.parts = append(ci.parts, id)
			}
		}
	}
	ci.off = append(ci.off, int32(len(ci.parts)))
	pt.cells.Store(ci)
	return ci
}

// nearWS is the pooled scratch of one PartitionsNear walk: a generation-
// stamped dense seen array over partition IDs and the result so far.
type nearWS struct {
	gen   uint32
	stamp []uint32
	out   []ID
}

// nearPool is shared by every partitioning in the process, so begin sizes
// each workspace to the partition count of the one about to use it.
var nearPool = sync.Pool{New: func() any { return new(nearWS) }}

func (ws *nearWS) begin(n int) {
	if len(ws.stamp) < n || ws.gen == math.MaxUint32 { // about to wrap: stamps from 2^32 walks ago would read as live
		ws.stamp, ws.gen = make([]uint32, n), 0
	}
	ws.gen++
	ws.out = ws.out[:0]
}

// PartitionsNear returns the distinct partitions owning at least one vertex
// within radiusMeters of p, i.e. the partitions intersecting the search
// disc of the candidate-taxi search (§IV-C1), in the order a grid scan of
// the disc's vertices first meets them. The spatial index must be built
// over the same graph.
func (pt *Partitioning) PartitionsNear(idx *roadnet.SpatialIndex, p geo.Point, radiusMeters float64) []ID {
	return pt.AppendPartitionsNear(nil, idx, p, radiusMeters)
}

// AppendPartitionsNear is PartitionsNear appending to dst. The walk is exact
// and does work proportional to the partitions it names, not to the disc's
// vertices: a cell whose partitions have all been named is skipped on its
// summary alone, and a vertex of a named partition before its distance is
// computed. A skipped vertex could only have re-named a partition, so the
// result and its order are those of testing every vertex.
func (pt *Partitioning) AppendPartitionsNear(dst []ID, idx *roadnet.SpatialIndex, p geo.Point, radiusMeters float64) []ID {
	ci := pt.cellsFor(idx)
	ws := nearPool.Get().(*nearWS)
	ws.begin(len(pt.parts))
	cols := idx.Cols()
	unnamed := func(id ID) bool { return ws.stamp[id] != ws.gen }
	r0, r1 := idx.CellRows(p, radiusMeters)
	for r := r0; r <= r1; r++ {
		c0, c1 := idx.CellCols(p, radiusMeters, r)
		for c := c0; c <= c1; c++ {
			cell := r*cols + c
			if !slices.ContainsFunc(ci.parts[ci.off[cell]:ci.off[cell+1]], unnamed) {
				continue
			}
			for _, v := range idx.CellVertices(r, c) {
				id := pt.assign[v]
				if ws.stamp[id] != ws.gen && geo.Equirect(p, pt.g.Point(v)) <= radiusMeters {
					ws.stamp[id] = ws.gen
					ws.out = append(ws.out, id)
				}
			}
		}
	}
	if len(ws.out) == 0 {
		// An empty disc (radius smaller than vertex spacing) degenerates to
		// the partition of the nearest vertex, so a search always has at
		// least the request's own partition.
		if v, ok := idx.NearestVertex(p); ok {
			ws.out = append(ws.out, pt.assign[v])
		}
	}
	dst = append(dst, ws.out...)
	nearPool.Put(ws)
	return dst
}

// LandmarkVector returns the mobility vector pointing from partition a's
// landmark to partition b's landmark, used by the partition-filter
// direction rule and by probabilistic routing's suitability test.
func (pt *Partitioning) LandmarkVector(a, b ID) geo.MobilityVector {
	return geo.NewMobilityVector(pt.g.Point(pt.landmark[a]), pt.g.Point(pt.landmark[b]))
}

// validate checks internal consistency; builders call it before returning.
func (pt *Partitioning) validate() error {
	n := pt.g.NumVertices()
	if len(pt.assign) != n {
		return fmt.Errorf("partition: assign has %d entries for %d vertices", len(pt.assign), n)
	}
	counted := 0
	for p, vs := range pt.parts {
		if len(vs) == 0 {
			return fmt.Errorf("partition: empty partition %d", p)
		}
		counted += len(vs)
		for _, v := range vs {
			if pt.assign[v] != ID(p) {
				return fmt.Errorf("partition: vertex %d listed in %d but assigned %d", v, p, pt.assign[v])
			}
		}
	}
	if counted != n {
		return fmt.Errorf("partition: partitions cover %d of %d vertices", counted, n)
	}
	for p, l := range pt.landmark {
		if pt.assign[l] != ID(p) {
			return fmt.Errorf("partition: landmark %d of partition %d lies in partition %d", l, p, pt.assign[l])
		}
	}
	return nil
}

// finalize computes centers, landmarks, the landmark graph, the
// landmark-cost table, and transition vectors for an assignment. It is
// shared by the bipartite and grid builders.
func finalize(g *roadnet.Graph, assign []ID, numParts int, trips []OD) (*Partitioning, error) {
	pt := &Partitioning{g: g, assign: assign}
	pt.parts = make([][]roadnet.VertexID, numParts)
	for v, p := range assign {
		pt.parts[p] = append(pt.parts[p], roadnet.VertexID(v))
	}
	// Drop empty partitions, re-densifying IDs.
	remap := make([]ID, numParts)
	kept := 0
	for p := range pt.parts {
		if len(pt.parts[p]) == 0 {
			remap[p] = None
			continue
		}
		remap[p] = ID(kept)
		pt.parts[kept] = pt.parts[p]
		kept++
	}
	pt.parts = pt.parts[:kept]
	for v := range assign {
		assign[v] = remap[assign[v]]
	}

	pt.center = make([]geo.Point, kept)
	for p, vs := range pt.parts {
		pts := make([]geo.Point, len(vs))
		for i, v := range vs {
			pts[i] = g.Point(v)
		}
		pt.center[p] = geo.Centroid(pts)
	}
	pt.computeLandmarks()
	pt.computeLandmarkGraph()
	pt.computeTransitions(trips)
	if err := pt.validate(); err != nil {
		return nil, err
	}
	return pt, nil
}

// computeLandmarks picks each partition's landmark: among the few vertices
// nearest the partition centroid, the one minimising total network distance
// to a deterministic sample of partition members. This approximates the
// paper's exact medoid (min total distance to all members) at a fraction of
// the cost; for small partitions it is exact. Each candidate's search stops
// once it has settled the sample (Graph.DistancesTo: SSSP's distances bit
// for bit), and partitions are spread over every CPU, each writing only its
// own landmark.
func (pt *Partitioning) computeLandmarks() {
	pt.landmark = make([]roadnet.VertexID, len(pt.parts))
	forEachPartition(len(pt.parts), 0, func(p int) { pt.landmark[p] = pt.pickLandmark(p) })
}

func (pt *Partitioning) pickLandmark(p int) roadnet.VertexID {
	const candidates = 5
	const sampleCap = 24
	vs := pt.parts[p]
	// Candidate vertices closest to the centroid.
	cand := nearestK(pt.g, vs, pt.center[p], candidates)
	if len(cand) == 1 {
		return cand[0]
	}
	// Deterministic sample of members (every k-th).
	step := len(vs)/sampleCap + 1
	var sample []roadnet.VertexID
	for i := 0; i < len(vs); i += step {
		sample = append(sample, vs[i])
	}
	best, bestSum := cand[0], math.Inf(1)
	for _, u := range cand {
		var sum float64
		for i, d := range pt.g.DistancesTo(u, sample) {
			if math.IsInf(d, 1) {
				d = 10 * geo.Equirect(pt.g.Point(u), pt.g.Point(sample[i])) // heavy penalty
			}
			sum += d
		}
		if sum < bestSum {
			best, bestSum = u, sum
		}
	}
	return best
}

// forEachPartition calls fn(p) for every p in [0, k) over min(parallelism, k)
// workers (parallelism <= 0: every CPU) and returns when all calls are done.
// Calls run in no fixed order, so fn must write only partition p's slots.
func forEachPartition(k, parallelism int, fn func(p int)) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > k {
		parallelism = k
	}
	if parallelism <= 1 {
		for p := 0; p < k; p++ {
			fn(p)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(parallelism)
	for w := 0; w < parallelism; w++ {
		go func() {
			defer wg.Done()
			for {
				p := int(next.Add(1)) - 1
				if p >= k {
					return
				}
				fn(p)
			}
		}()
	}
	wg.Wait()
}

// nearestK returns up to k vertices from vs closest to c (straight line).
func nearestK(g *roadnet.Graph, vs []roadnet.VertexID, c geo.Point, k int) []roadnet.VertexID {
	type vd struct {
		v roadnet.VertexID
		d float64
	}
	best := make([]vd, 0, k)
	for _, v := range vs {
		d := geo.Equirect(g.Point(v), c)
		if len(best) < k {
			best = append(best, vd{v, d})
			// Keep sorted ascending by d (k is tiny).
			for i := len(best) - 1; i > 0 && best[i].d < best[i-1].d; i-- {
				best[i], best[i-1] = best[i-1], best[i]
			}
			continue
		}
		if d < best[k-1].d {
			best[k-1] = vd{v, d}
			for i := k - 1; i > 0 && best[i].d < best[i-1].d; i-- {
				best[i], best[i-1] = best[i-1], best[i]
			}
		}
	}
	out := make([]roadnet.VertexID, len(best))
	for i, b := range best {
		out[i] = b.v
	}
	return out
}

// computeLandmarkGraph derives partition adjacency from road edges crossing
// partition borders and fills the landmark-to-landmark cost table with one
// Dijkstra tree per landmark, spread over every CPU.
func (pt *Partitioning) computeLandmarkGraph() {
	k := len(pt.parts)
	adjSet := make([]map[ID]struct{}, k)
	for p := range adjSet {
		adjSet[p] = make(map[ID]struct{})
	}
	for v := 0; v < pt.g.NumVertices(); v++ {
		pv := pt.assign[v]
		for _, a := range pt.g.Out(roadnet.VertexID(v)) {
			pw := pt.assign[a.To]
			if pv != pw {
				adjSet[pv][pw] = struct{}{}
				adjSet[pw][pv] = struct{}{}
			}
		}
	}
	pt.adj = make([][]ID, k)
	for p, set := range adjSet {
		for q := range set {
			pt.adj[p] = append(pt.adj[p], q)
		}
		sortIDs(pt.adj[p])
	}
	pt.lmCost = make([][]float64, k)
	forEachPartition(k, 0, func(p int) {
		res := pt.g.SSSP(pt.landmark[p])
		row := make([]float64, k)
		for q := 0; q < k; q++ {
			row[q] = res.Dist[pt.landmark[q]]
		}
		pt.lmCost[p] = row
	})
}

func sortIDs(ids []ID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// computeTransitions fills per-vertex transition vectors over the final
// partitions from historical trips, with per-partition mean vectors as the
// smoothing fallback for vertices that never originated a trip.
func (pt *Partitioning) computeTransitions(trips []OD) {
	n := pt.g.NumVertices()
	k := len(pt.parts)
	counts := make([][]float32, n)
	totals := make([]float32, n)
	for _, t := range trips {
		if counts[t.O] == nil {
			counts[t.O] = make([]float32, k)
		}
		counts[t.O][pt.assign[t.D]]++
		totals[t.O]++
	}
	// Partition-level aggregate first (used as fallback).
	pt.partTrans = make([][]float32, k)
	for p, vs := range pt.parts {
		agg := make([]float32, k)
		var total float32
		for _, v := range vs {
			if counts[v] == nil {
				continue
			}
			for q, c := range counts[v] {
				agg[q] += c
			}
			total += totals[v]
		}
		if total > 0 {
			for q := range agg {
				agg[q] /= total
			}
		} else {
			// No data anywhere in the partition: uniform prior.
			for q := range agg {
				agg[q] = 1 / float32(k)
			}
		}
		pt.partTrans[p] = agg
	}
	pt.trans = make([][]float32, n)
	for v := 0; v < n; v++ {
		if totals[v] > 0 {
			row := counts[v]
			for q := range row {
				row[q] /= totals[v]
			}
			pt.trans[v] = row
			continue
		}
		pt.trans[v] = pt.partTrans[pt.assign[v]]
	}
	// Origin demand prior per partition.
	pt.originW = make([]float64, k)
	if len(trips) == 0 {
		for p := range pt.originW {
			pt.originW[p] = 1 / float64(k)
		}
		return
	}
	for _, t := range trips {
		pt.originW[pt.assign[t.O]]++
	}
	for p := range pt.originW {
		pt.originW[p] /= float64(len(trips))
	}
}
