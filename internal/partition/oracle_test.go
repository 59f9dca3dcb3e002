package partition

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/roadnet"
)

// oracleWorld is one (graph, partitioning) pair the metamorphic suite
// checks the oracle against.
type oracleWorld struct {
	name string
	g    *roadnet.Graph
	pt   *Partitioning
}

// oracleWorlds crosses both road generators (grid avenues and radial
// ring-and-spoke) with both partitioners (mobility bipartite and
// geographic grid), so admissibility is exercised on structurally
// different graphs and landmark placements.
func oracleWorlds(t testing.TB) []oracleWorld {
	t.Helper()
	var worlds []oracleWorld

	gridG, _, ods := testCity(t, 12, 12, 150)
	bp, err := BuildBipartite(gridG, ods, Params{Kappa: 10, KTrans: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	worlds = append(worlds, oracleWorld{"grid-bipartite", gridG, bp})
	gp, err := BuildGrid(gridG, ods, 9)
	if err != nil {
		t.Fatal(err)
	}
	worlds = append(worlds, oracleWorld{"grid-gridpart", gridG, gp})

	radG, err := roadnet.GenerateRadialCity(roadnet.DefaultRadialCityParams(8, 10))
	if err != nil {
		t.Fatal(err)
	}
	// Synthesize trips on the radial graph from random vertex pairs: the
	// partitioners only need OD weight, not realistic demand.
	rng := rand.New(rand.NewSource(3))
	var radODs []OD
	n := radG.NumVertices()
	for i := 0; i < 300; i++ {
		o := roadnet.VertexID(rng.Intn(n))
		d := roadnet.VertexID(rng.Intn(n))
		if o == d {
			continue
		}
		radODs = append(radODs, OD{O: o, D: d})
	}
	rbp, err := BuildBipartite(radG, radODs, Params{Kappa: 8, KTrans: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	worlds = append(worlds, oracleWorld{"radial-bipartite", radG, rbp})
	rgp, err := BuildGrid(radG, radODs, 9)
	if err != nil {
		t.Fatal(err)
	}
	worlds = append(worlds, oracleWorld{"radial-gridpart", radG, rgp})
	return worlds
}

// TestOracleLowerBoundAdmissible is the metamorphic property at the heart
// of the PR: for thousands of seeded random pairs, the oracle's estimate
// never exceeds the exact Dijkstra distance, and an infinite estimate
// only appears when the pair is truly disconnected. Any violation would
// let the dispatch screen prune a feasible candidate.
func TestOracleLowerBoundAdmissible(t *testing.T) {
	const pairsPerWorld = 1500
	for _, w := range oracleWorlds(t) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			o := NewOracle(w.pt)
			rng := rand.New(rand.NewSource(42))
			n := w.g.NumVertices()
			// Exact distances via one forward SSSP per sampled source:
			// far cheaper than per-pair Dijkstra and bit-identical.
			sources := make(map[roadnet.VertexID]*roadnet.SSSPResult)
			for i := 0; i < pairsPerWorld; i++ {
				u := roadnet.VertexID(rng.Intn(n))
				v := roadnet.VertexID(rng.Intn(n))
				sp := sources[u]
				if sp == nil {
					sp = w.g.SSSP(u)
					sources[u] = sp
				}
				exact := sp.Dist[v]
				lb := o.EstimateLB(u, v)
				if math.IsInf(lb, 1) {
					if !math.IsInf(exact, 1) {
						t.Fatalf("EstimateLB(%d,%d) = +Inf but exact = %v", u, v, exact)
					}
					continue
				}
				if lb > exact+1e-6 {
					t.Fatalf("EstimateLB(%d,%d) = %v exceeds exact %v (inadmissible)", u, v, lb, exact)
				}
				if lb < 0 {
					t.Fatalf("EstimateLB(%d,%d) = %v negative", u, v, lb)
				}
			}
		})
	}
}

// TestOracleSelfDistanceZero pins EstimateLB(u,u) == 0 for every vertex.
func TestOracleSelfDistanceZero(t *testing.T) {
	for _, w := range oracleWorlds(t) {
		o := NewOracle(w.pt)
		for v := 0; v < w.g.NumVertices(); v++ {
			if got := o.EstimateLB(roadnet.VertexID(v), roadnet.VertexID(v)); got != 0 {
				t.Fatalf("%s: EstimateLB(%d,%d) = %v, want 0", w.name, v, v, got)
			}
		}
	}
}

// TestOracleParallelBuildDeterministic pins that the precompute produces
// bit-identical offset tables at every GOMAXPROCS: each partition's fill
// touches a disjoint vertex set, so scheduling cannot matter.
func TestOracleParallelBuildDeterministic(t *testing.T) {
	w := oracleWorlds(t)[0]
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base := NewOracle(w.pt)
	for _, par := range []int{2, 4, 8} {
		runtime.GOMAXPROCS(par)
		o := NewOracle(w.pt)
		for v := range base.fromLM {
			fa, fb := base.fromLM[v], o.fromLM[v]
			ta, tb := base.toLM[v], o.toLM[v]
			if fa != fb && !(math.IsInf(fa, 1) && math.IsInf(fb, 1)) {
				t.Fatalf("parallelism %d: fromLM[%d] = %v, serial %v", par, v, fb, fa)
			}
			if ta != tb && !(math.IsInf(ta, 1) && math.IsInf(tb, 1)) {
				t.Fatalf("parallelism %d: toLM[%d] = %v, serial %v", par, v, tb, ta)
			}
		}
	}
}

// TestOracleLandmarkOffsetsExact pins the tables bit for bit on the repo
// benchmark's worlds: for every partition member, fromLM must equal the
// landmark's forward SSSP distance and toLM its ReverseSSSP distance, and
// an FNV-1a hash of both arrays (exact float bits, vertex order) must match
// the one the full-tree build produced.
func TestOracleLandmarkOffsetsExact(t *testing.T) {
	worlds := []struct {
		rows       int
		from, toLM string
	}{
		{28, "bf88b3400b9244d2", "ad6407c3a3a237c2"},
		{48, "f18475c8e82acb68", "def1a1f34ac100b5"},
		{56, "fa5fd42f2c94bf5c", "a5c8e55bb746c9bf"},
	}
	for _, w := range worlds {
		g, ods, pp := serverWorld(t, w.rows)
		pt, err := BuildBipartite(g, ods, pp)
		if err != nil {
			t.Fatal(err)
		}
		o := NewOracle(pt)
		for p := 0; p < pt.NumPartitions(); p++ {
			lm := pt.Landmark(ID(p))
			fwd, rev := g.SSSP(lm), g.ReverseSSSP(lm)
			for _, v := range pt.Vertices(ID(p)) {
				if math.Float64bits(o.fromLM[v]) != math.Float64bits(fwd.Dist[v]) {
					t.Fatalf("%dx%d: fromLM[%d] = %v, SSSP %v", w.rows, w.rows, v, o.fromLM[v], fwd.Dist[v])
				}
				if math.Float64bits(o.toLM[v]) != math.Float64bits(rev.Dist[v]) {
					t.Fatalf("%dx%d: toLM[%d] = %v, ReverseSSSP %v", w.rows, w.rows, v, o.toLM[v], rev.Dist[v])
				}
			}
		}
		if got := floatsHash(o.fromLM); got != w.from {
			t.Errorf("%dx%d: fromLM hash %s, want %s", w.rows, w.rows, got, w.from)
		}
		if got := floatsHash(o.toLM); got != w.toLM {
			t.Errorf("%dx%d: toLM hash %s, want %s", w.rows, w.rows, got, w.toLM)
		}
	}
}

// floatsHash is the FNV-1a hash of xs' exact float64 bits, little-endian.
func floatsHash(xs []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// BenchmarkNewOracle times the reverse landmark offsets on the steady
// workload's 56x56 world, the oracle build server.New runs beside the CH:
//
//	go test -run '^$' -bench NewOracle -benchmem ./internal/partition
func BenchmarkNewOracle(b *testing.B) {
	g, ods, pp := serverWorld(b, 56)
	pt, err := BuildBipartite(g, ods, pp)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewOracle(pt)
	}
}

// TestOracleMemoryBytes sanity-checks the reported footprint: two float64
// per vertex plus the struct header.
func TestOracleMemoryBytes(t *testing.T) {
	w := oracleWorlds(t)[0]
	o := NewOracle(w.pt)
	want := int64(16*w.g.NumVertices() + 48)
	if got := o.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
}
