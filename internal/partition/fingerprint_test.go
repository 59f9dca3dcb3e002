package partition

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/trace"
)

// serverWorld builds the road graph, snapped history and partitioning
// parameters exactly as server.New does for a rows×rows city at seed 1,
// the world of the repo benchmark's workloads (56: steady and hotspot,
// 48: backlog, 28: durable).
func serverWorld(t testing.TB, rows int) (*roadnet.Graph, []OD, Params) {
	t.Helper()
	cp := roadnet.DefaultCityParams(rows, rows)
	cp.Seed = 1
	g, err := roadnet.GenerateCity(cp)
	if err != nil {
		t.Fatal(err)
	}
	spx := roadnet.NewSpatialIndex(g, 250)
	min, max := g.Bounds()
	hist, err := trace.Generate(trace.Workday, trace.GenParams{
		Center:           geo.Midpoint(min, max),
		ExtentMeters:     geo.Equirect(geo.Point{Lat: min.Lat, Lng: min.Lng}, geo.Point{Lat: min.Lat, Lng: max.Lng}),
		TripsPerHourPeak: 400,
		UniformFrac:      0.15,
		Seed:             2,
	})
	if err != nil {
		t.Fatal(err)
	}
	kappa := g.NumVertices() / 25
	if kappa < 8 {
		kappa = 8
	}
	pp := DefaultParams(kappa)
	if pp.KTrans >= kappa {
		pp.KTrans = kappa / 2
	}
	return g, snapDataset(spx, hist), pp
}

// fingerprint hashes every output of a Partitioning, floats by their exact
// bits, one FNV-1a hash per field so a mismatch names what moved.
func fingerprint(pt *Partitioning) string {
	field := func(fill func(put func(uint64))) uint64 {
		h := fnv.New64a()
		var b [8]byte
		fill(func(x uint64) {
			binary.LittleEndian.PutUint64(b[:], x)
			h.Write(b[:])
		})
		return h.Sum64()
	}
	f32s := func(put func(uint64), xs []float32) {
		put(uint64(len(xs)))
		for _, x := range xs {
			put(uint64(math.Float32bits(x)))
		}
	}
	k := pt.NumPartitions()
	return fmt.Sprintf("assign=%016x centers=%016x landmarks=%016x adj=%016x lmcost=%016x trans=%016x origin=%016x",
		field(func(put func(uint64)) {
			for _, p := range pt.assign {
				put(uint64(p))
			}
		}),
		field(func(put func(uint64)) {
			for _, c := range pt.center {
				put(math.Float64bits(c.Lat))
				put(math.Float64bits(c.Lng))
			}
		}),
		field(func(put func(uint64)) {
			for _, l := range pt.landmark {
				put(uint64(l))
			}
		}),
		field(func(put func(uint64)) {
			for _, a := range pt.adj {
				put(uint64(len(a)))
				for _, q := range a {
					put(uint64(q))
				}
			}
		}),
		field(func(put func(uint64)) {
			for p := 0; p < k; p++ {
				for q := 0; q < k; q++ {
					put(math.Float64bits(pt.LandmarkCost(ID(p), ID(q))))
				}
			}
		}),
		field(func(put func(uint64)) {
			for _, tr := range pt.trans {
				f32s(put, tr)
			}
			for _, tr := range pt.partTrans {
				f32s(put, tr)
			}
		}),
		field(func(put func(uint64)) {
			for _, w := range pt.originW {
				put(math.Float64bits(w))
			}
		}))
}

// TestPartitioningFingerprint pins every bit of the partitionings the repo
// benchmark's servers build to the values the dense Lloyd loop and the
// full-SSSP landmark search produced, at several worker counts: the distinct-
// point k-means, its workers and the target-bounded landmark searches must
// not move a single bit.
func TestPartitioningFingerprint(t *testing.T) {
	worlds := []struct {
		rows int
		want string
	}{
		{28, "assign=af83eed803c3dba4 centers=0d28ae42618555ca landmarks=d213d7a87b7b83a0 adj=1cbd3620432279ec lmcost=bf8e6870f8f4dccf trans=19b07b774a4f68bf origin=442b4d303533714b"},
		{48, "assign=682565d35a1775ed centers=e7e32dc3bf781d23 landmarks=bb96345f5d6e9b64 adj=6c00eafa17309d9c lmcost=4ee8ac914ef93f2e trans=b233116018bbc4e6 origin=b31e355f3a8a3ede"},
		{56, "assign=2670ca4fc556bb51 centers=3a0e8a81de23b2ea landmarks=91ea0ca955431fcf adj=c38305ce1b1747af lmcost=2b8239fef9b3be88 trans=df8ecfead74489b8 origin=20b45f61f0c39b8c"},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range worlds {
		g, ods, pp := serverWorld(t, w.rows)
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			pt, err := BuildBipartite(g, ods, pp)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(pt); got != w.want {
				t.Errorf("%dx%d, GOMAXPROCS %d:\n got %s\nwant %s", w.rows, w.rows, procs, got, w.want)
			}
		}
	}
}
