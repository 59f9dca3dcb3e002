//go:build !race

package partition

import (
	"testing"

	"repro/internal/roadnet"
)

// TestPartitionsNearAllocs pins the lookup at the slice it returns: the seen
// array and the discovery list live in the pooled workspace. Not built under
// -race, where sync.Pool drops a quarter of all Puts on purpose.
func TestPartitionsNearAllocs(t *testing.T) {
	g, idx, pt := buildBipartite(t, 12)
	pt.IndexCells(idx)
	n := g.NumVertices()
	pt.PartitionsNear(idx, g.Point(0), 2500) // warm the workspace pool
	i := 0
	if got := testing.AllocsPerRun(200, func() {
		i++
		pt.PartitionsNear(idx, g.Point(roadnet.VertexID(i*31%n)), 2500)
	}); got > 1 {
		t.Fatalf("PartitionsNear allocates %v times per lookup, want <= 1", got)
	}
	buf := make([]ID, 0, pt.NumPartitions())
	if got := testing.AllocsPerRun(200, func() {
		i++
		buf = pt.AppendPartitionsNear(buf[:0], idx, g.Point(roadnet.VertexID(i*31%n)), 2500)
	}); got != 0 {
		t.Fatalf("AppendPartitionsNear into a sized buffer allocates %v times, want 0", got)
	}
}
