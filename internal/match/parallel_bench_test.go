package match

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/partition"
	"repro/internal/roadnet"
	"repro/internal/trace"
)

// benchWorld is the shared large city for the parallel-dispatch benchmark:
// a 100x100 grid (~10k vertices), an order of magnitude above the unit-test
// world, so per-candidate scheduling work dominates dispatch.
var benchWorld struct {
	once sync.Once
	g    *roadnet.Graph
	spx  *roadnet.SpatialIndex
	pt   *partition.Partitioning
	err  error
}

func bigWorld(b *testing.B) (*roadnet.Graph, *roadnet.SpatialIndex, *partition.Partitioning) {
	b.Helper()
	benchWorld.once.Do(func() {
		g, err := roadnet.GenerateCity(roadnet.DefaultCityParams(100, 100))
		if err != nil {
			benchWorld.err = err
			return
		}
		spx := roadnet.NewSpatialIndex(g, 250)
		min, max := g.Bounds()
		center := geo.Midpoint(min, max)
		extent := geo.Equirect(geo.Point{Lat: min.Lat, Lng: min.Lng}, geo.Point{Lat: min.Lat, Lng: max.Lng})
		ds, err := trace.Generate(trace.Workday, trace.GenParams{
			Center: center, ExtentMeters: extent, TripsPerHourPeak: 600,
			UniformFrac: 0.15, MinTripMeters: 500, Seed: 2,
		})
		if err != nil {
			benchWorld.err = err
			return
		}
		pairs := make([]struct{ Origin, Dest geo.Point }, len(ds.Trips))
		for i, tr := range ds.Trips {
			pairs[i] = struct{ Origin, Dest geo.Point }{tr.Origin, tr.Dest}
		}
		params := partition.DefaultParams(40)
		pt, err := partition.BuildBipartite(g, partition.SnapTrips(spx, pairs), params)
		if err != nil {
			benchWorld.err = err
			return
		}
		benchWorld.g, benchWorld.spx, benchWorld.pt = g, spx, pt
	})
	if benchWorld.err != nil {
		b.Fatal(benchWorld.err)
	}
	return benchWorld.g, benchWorld.spx, benchWorld.pt
}

// BenchmarkDispatchParallel measures one Dispatch call on a saturated
// 10k-vertex city at increasing GOMAXPROCS, the dispatch pool's size. The
// sub-benchmark names keep the "parallelism=N" form. The workload is
// identical across sub-benchmarks (parallel dispatch is bit-identical to
// sequential), so ns/op ratios are direct speedups.
func BenchmarkDispatchParallel(b *testing.B) {
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			g, spx, pt := bigWorld(b)
			cfg := DefaultConfig()
			cfg.SearchRangeMeters = 6000
			// Large enough that steady-state scheduling is not dominated
			// by LRU thrash recomputing evicted trees.
			cfg.RouterCacheTrees = 4096
			cfg.CH = bigWorldCH(b)
			e, err := NewEngine(pt, spx, cfg)
			if err != nil {
				b.Fatal(err)
			}
			env := &testEnv{g: g, spx: spx, pt: pt, e: e}
			placeFleet(env, 400, 42)
			// Preload: commit a request stream so taxis carry non-trivial
			// schedules; dispatch then enumerates real insertions.
			preload := seededWorkload(env, 400, 7)
			var now float64
			for _, r := range preload {
				now = r.ReleaseAt.Seconds()
				if a, ok := e.Dispatch(r, now, false); ok {
					if err := e.Commit(a, now); err != nil {
						b.Fatal(err)
					}
				}
			}
			// Probes release at the post-preload clock so candidate search
			// sees the saturated fleet with live schedules.
			probeRNG := rand.New(rand.NewSource(99))
			nv := g.NumVertices()
			probes := make([]*fleet.Request, 0, 128)
			for len(probes) < cap(probes) {
				o := roadnet.VertexID(probeRNG.Intn(nv))
				d := roadnet.VertexID(probeRNG.Intn(nv))
				if o == d || math.IsInf(e.Router().Cost(o, d), 1) {
					continue
				}
				probes = append(probes, env.request(int64(10000+len(probes)), o, d, now, 1.5))
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
			s0 := e.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Dispatch(probes[i%len(probes)], now, false)
			}
			b.StopTimer()
			s1 := e.Stats()
			n := float64(b.N)
			b.ReportMetric((float64(s1.CandidateSearchNanos-s0.CandidateSearchNanos))/n, "candsearch-ns/op")
			b.ReportMetric((float64(s1.SchedulingNanos-s0.SchedulingNanos))/n, "sched-ns/op")
			b.ReportMetric(float64(s1.CandidatesExamined-s0.CandidatesExamined)/n, "cands/op")
		})
	}
}
