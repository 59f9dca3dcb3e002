package roadnet

import (
	"math"

	"repro/internal/geo"
)

// SpatialIndex is a uniform grid over a graph's bounding box supporting
// nearest-vertex snapping (the paper pre-maps request endpoints to the
// closest road vertex) and radius queries (candidate-taxi search discs).
//
// The index is immutable after construction and safe for concurrent use.
type SpatialIndex struct {
	g         *Graph
	minLat    float64
	minLng    float64
	cellLat   float64 // cell height in degrees
	cellLng   float64 // cell width in degrees
	rows      int
	cols      int
	cells     [][]VertexID
	metersLat float64 // meters per degree latitude
	metersLng float64 // meters per degree longitude at mid latitude
}

// NewSpatialIndex builds a grid index over g with approximately the given
// cell size in meters. cellMeters must be positive; typical values are
// 200–500 m.
func NewSpatialIndex(g *Graph, cellMeters float64) *SpatialIndex {
	min, max := g.Bounds()
	midLat := (min.Lat + max.Lat) / 2
	mLat := geo.EarthRadiusMeters * math.Pi / 180
	mLng := mLat * math.Cos(midLat*math.Pi/180)
	if mLng < 1 {
		mLng = 1
	}
	cellLat := cellMeters / mLat
	cellLng := cellMeters / mLng
	rows := int((max.Lat-min.Lat)/cellLat) + 1
	cols := int((max.Lng-min.Lng)/cellLng) + 1
	if rows < 1 {
		rows = 1
	}
	if cols < 1 {
		cols = 1
	}
	idx := &SpatialIndex{
		g:         g,
		minLat:    min.Lat,
		minLng:    min.Lng,
		cellLat:   cellLat,
		cellLng:   cellLng,
		rows:      rows,
		cols:      cols,
		cells:     make([][]VertexID, rows*cols),
		metersLat: mLat,
		metersLng: mLng,
	}
	for v := 0; v < g.NumVertices(); v++ {
		c := idx.cellOf(g.Point(VertexID(v)))
		idx.cells[c] = append(idx.cells[c], VertexID(v))
	}
	return idx
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func (idx *SpatialIndex) cellOf(p geo.Point) int {
	r := int((p.Lat - idx.minLat) / idx.cellLat)
	c := int((p.Lng - idx.minLng) / idx.cellLng)
	if r < 0 {
		r = 0
	}
	if r >= idx.rows {
		r = idx.rows - 1
	}
	if c < 0 {
		c = 0
	}
	if c >= idx.cols {
		c = idx.cols - 1
	}
	return r*idx.cols + c
}

// Rows and Cols report the grid dimensions (useful for diagnostics).
func (idx *SpatialIndex) Rows() int { return idx.rows }

// Cols reports the number of grid columns.
func (idx *SpatialIndex) Cols() int { return idx.cols }

// NearestVertex returns the graph vertex closest to p. It expands the ring
// of grid cells around p until a candidate is found, then widens once more
// to guarantee correctness near cell borders. ok is false only for an
// empty graph.
func (idx *SpatialIndex) NearestVertex(p geo.Point) (VertexID, bool) {
	if idx.g.NumVertices() == 0 {
		return Invalid, false
	}
	pr := clampInt(int((p.Lat-idx.minLat)/idx.cellLat), 0, idx.rows-1)
	pc := clampInt(int((p.Lng-idx.minLng)/idx.cellLng), 0, idx.cols-1)
	best := Invalid
	bestD := math.Inf(1)
	maxRing := idx.rows
	if idx.cols > maxRing {
		maxRing = idx.cols
	}
	foundRing := -1
	for ring := 0; ring <= maxRing; ring++ {
		if foundRing >= 0 && ring > foundRing+1 {
			break // one extra ring covers border effects
		}
		hit := false
		for r := pr - ring; r <= pr+ring; r++ {
			if r < 0 || r >= idx.rows {
				continue
			}
			for c := pc - ring; c <= pc+ring; c++ {
				if c < 0 || c >= idx.cols {
					continue
				}
				// Only the ring boundary; interior was scanned before.
				if ring > 0 && r != pr-ring && r != pr+ring && c != pc-ring && c != pc+ring {
					continue
				}
				for _, v := range idx.cells[r*idx.cols+c] {
					d := geo.Equirect(p, idx.g.Point(v))
					hit = true
					if d < bestD {
						bestD = d
						best = v
					}
				}
			}
		}
		if hit && foundRing < 0 {
			foundRing = ring
		}
	}
	return best, best != Invalid
}

// CellRows returns the inclusive range of grid rows a radius query around p
// scans, clipped to the grid; it is empty (r0 > r1) when radiusMeters is not
// positive. Walking rows r0..r1 and, in each, the columns of CellCols in
// ascending order is the grid scan order of VerticesWithin.
func (idx *SpatialIndex) CellRows(p geo.Point, radiusMeters float64) (r0, r1 int) {
	if radiusMeters <= 0 {
		return 0, -1
	}
	dr := int(radiusMeters/(idx.cellLat*idx.metersLat)) + 1
	pr := int((p.Lat - idx.minLat) / idx.cellLat)
	return max(pr-dr, 0), min(pr+dr, idx.rows-1)
}

// CellCols returns the inclusive range of columns of one row that a radius
// query around p scans, clipped to the grid: every cell of the row holding a
// vertex v with geo.Equirect(p, v) <= radiusMeters lies in it, so the scan
// covers the disc rather than its bounding square. It may be empty.
//
// The bound is conservative. A vertex of the row differs from p in latitude
// by at least the gap between p and the row's band; Equirect scales the
// longitude difference by the cosine of the mean latitude, which over the
// band is at least its value at the end farther from the equator; and every
// comparison is padded (slack, in degrees, is ~0.1 mm) by far more than the
// rounding of cellOf's divisions and of Equirect itself.
func (idx *SpatialIndex) CellCols(p geo.Point, radiusMeters float64, row int) (c0, c1 int) {
	const slack = 1e-9
	lo := idx.minLat + float64(row)*idx.cellLat
	hi := lo + idx.cellLat
	gap := math.Max(math.Max(lo-p.Lat, p.Lat-hi)-slack, 0)
	rho := radiusMeters / idx.metersLat * (1 + slack) // the radius in degrees of latitude
	if gap > rho {
		return 0, -1
	}
	c0, c1 = 0, idx.cols-1
	farLat := math.Max(math.Abs(p.Lat+lo), math.Abs(p.Lat+hi))/2 + slack
	if farLat >= 90 {
		return c0, c1
	}
	w := math.Sqrt(rho*rho-gap*gap)/(math.Cos(farLat*math.Pi/180)*(1-slack)) + slack
	if lng := (p.Lng - w - idx.minLng) / idx.cellLng; lng > 0 {
		c0 = int(lng)
	}
	if lng := (p.Lng + w - idx.minLng) / idx.cellLng; lng < float64(c1) {
		c1 = int(lng)
	}
	return c0, c1
}

// CellVertices returns the vertices of the grid cell at (row, col) in
// ascending ID order. The slice must not be modified.
func (idx *SpatialIndex) CellVertices(row, col int) []VertexID { return idx.cells[row*idx.cols+col] }

// VerticesWithin returns all vertices within radiusMeters of p. The result
// order is deterministic (grid scan order).
func (idx *SpatialIndex) VerticesWithin(p geo.Point, radiusMeters float64) []VertexID {
	r0, r1 := idx.CellRows(p, radiusMeters)
	var out []VertexID
	for r := r0; r <= r1; r++ {
		c0, c1 := idx.CellCols(p, radiusMeters, r)
		for c := c0; c <= c1; c++ {
			for _, v := range idx.cells[r*idx.cols+c] {
				if geo.Equirect(p, idx.g.Point(v)) <= radiusMeters {
					out = append(out, v)
				}
			}
		}
	}
	return out
}
