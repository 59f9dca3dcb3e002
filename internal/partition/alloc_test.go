//go:build !race

package partition

import (
	"runtime"
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

// TestSetupAllocBytes bounds the bytes BuildBipartite and NewOracle allocate
// for the backlog workload's 48x48 world. They allocate 10.3–10.5 MB at
// GOMAXPROCS 1–4 (29.5 MB with full landmark trees and dense transition
// rows); the ceiling is about 25 % above that, so a set-up structure that
// starts building what it does not keep fails here rather than only as GC
// time in setup_s.
func TestSetupAllocBytes(t *testing.T) {
	const ceiling = 13 << 20
	g, ods, pp := serverWorld(t, 48)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pt, err := BuildBipartite(g, ods, pp)
	if err != nil {
		t.Fatal(err)
	}
	NewOracle(pt)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("BuildBipartite + NewOracle allocated %.1f MB in %d GCs", float64(got)/(1<<20), after.NumGC-before.NumGC)
	if got > ceiling {
		t.Fatalf("BuildBipartite + NewOracle allocated %d bytes, ceiling %d", got, ceiling)
	}
}
