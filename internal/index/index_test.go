package index

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/partition"
	"repro/internal/roadnet"
)

func testPartitioning(t testing.TB) (*roadnet.Graph, *Partitioned) {
	t.Helper()
	g, err := roadnet.GenerateCity(roadnet.DefaultCityParams(12, 12))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := partition.BuildGrid(g, nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	return g, &Partitioned{pt: pt}
}

// Partitioned bundles the partitioning for test readability.
type Partitioned struct{ pt *partition.Partitioning }

func TestPartitionIndexIdleTaxi(t *testing.T) {
	_, w := testPartitioning(t)
	ix := NewPartitionIndex(w.pt, 3600)
	at := w.pt.Vertices(0)[0]
	ix.Update(7, at, nil, 100, 4.17)
	entries := ix.Taxis(w.pt.PartitionOf(at))
	if len(entries) != 1 || entries[0].TaxiID != 7 || entries[0].ArrivalSeconds != 100 {
		t.Fatalf("entries = %v", entries)
	}
	if arr, ok := ix.ArrivalAt(7, w.pt.PartitionOf(at)); !ok || arr != 100 {
		t.Fatalf("ArrivalAt = %v, %v", arr, ok)
	}
}

func TestPartitionIndexRouteArrivals(t *testing.T) {
	g, w := testPartitioning(t)
	ix := NewPartitionIndex(w.pt, 3600)
	// Route across the city: the taxi must appear in every partition the
	// route crosses, with non-decreasing arrival times.
	src := roadnet.VertexID(0)
	dst := roadnet.VertexID(g.NumVertices() - 1)
	_, path, ok := g.ShortestPath(src, dst)
	if !ok {
		t.Fatal("no cross-city path")
	}
	ix.Update(1, src, path, 0, 4.17)
	crossed := map[partition.ID]bool{}
	for _, v := range path {
		crossed[w.pt.PartitionOf(v)] = true
	}
	found := 0
	var prev float64 = -1
	for p := range crossed {
		entries := ix.Taxis(p)
		if len(entries) == 1 && entries[0].TaxiID == 1 {
			found++
			if entries[0].ArrivalSeconds < 0 {
				t.Fatal("negative arrival")
			}
			_ = prev
		}
	}
	if found != len(crossed) {
		t.Fatalf("taxi indexed in %d of %d crossed partitions", found, len(crossed))
	}
	// Arrival at origin partition is now (0); at destination partition it
	// must be positive.
	if arr, ok := ix.ArrivalAt(1, w.pt.PartitionOf(dst)); !ok || arr <= 0 {
		t.Fatalf("dest arrival = %v, %v", arr, ok)
	}
}

func TestPartitionIndexHorizonCutsOff(t *testing.T) {
	g, w := testPartitioning(t)
	// Tiny horizon: only the current partition (and near neighbours)
	// should be indexed.
	ix := NewPartitionIndex(w.pt, 1)
	src := roadnet.VertexID(0)
	dst := roadnet.VertexID(g.NumVertices() - 1)
	_, path, _ := g.ShortestPath(src, dst)
	ix.Update(1, src, path, 0, 4.17)
	st := ix.Stats()
	if st.Entries > 3 {
		t.Fatalf("horizon ignored: %d entries", st.Entries)
	}
	if _, ok := ix.ArrivalAt(1, w.pt.PartitionOf(dst)); ok && w.pt.PartitionOf(dst) != w.pt.PartitionOf(src) {
		t.Fatal("distant partition indexed despite horizon")
	}
}

func TestPartitionIndexUpdateReplaces(t *testing.T) {
	g, w := testPartitioning(t)
	ix := NewPartitionIndex(w.pt, 3600)
	src := roadnet.VertexID(0)
	dst := roadnet.VertexID(g.NumVertices() - 1)
	_, path, _ := g.ShortestPath(src, dst)
	ix.Update(1, src, path, 0, 4.17)
	before := ix.Stats().Entries
	if before < 2 {
		t.Fatalf("expected multi-partition route, got %d entries", before)
	}
	// Re-index as idle at destination: old entries must vanish.
	ix.Update(1, dst, nil, 500, 4.17)
	after := ix.Stats()
	if after.Entries != 1 {
		t.Fatalf("stale entries remain: %d", after.Entries)
	}
	if _, ok := ix.ArrivalAt(1, w.pt.PartitionOf(src)); ok && w.pt.PartitionOf(src) != w.pt.PartitionOf(dst) {
		t.Fatal("old partition entry not removed")
	}
}

func TestPartitionIndexRemove(t *testing.T) {
	_, w := testPartitioning(t)
	ix := NewPartitionIndex(w.pt, 3600)
	at := w.pt.Vertices(0)[0]
	ix.Update(1, at, nil, 0, 4.17)
	ix.Remove(1)
	if st := ix.Stats(); st.Entries != 0 || st.Taxis != 0 {
		t.Fatalf("after remove: %+v", st)
	}
	ix.Remove(1) // idempotent
}

func TestPartitionIndexSortedByArrival(t *testing.T) {
	_, w := testPartitioning(t)
	ix := NewPartitionIndex(w.pt, 3600)
	p := partition.ID(0)
	at := w.pt.Vertices(p)[0]
	ix.Update(3, at, nil, 300, 4.17)
	ix.Update(1, at, nil, 100, 4.17)
	ix.Update(2, at, nil, 200, 4.17)
	entries := ix.Taxis(p)
	if len(entries) != 3 {
		t.Fatalf("entries = %d", len(entries))
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].ArrivalSeconds < entries[i-1].ArrivalSeconds {
			t.Fatal("not sorted by arrival")
		}
	}
	if entries[0].TaxiID != 1 || entries[2].TaxiID != 3 {
		t.Fatalf("order = %v", entries)
	}
}

func TestPartitionIndexZeroSpeed(t *testing.T) {
	g, w := testPartitioning(t)
	ix := NewPartitionIndex(w.pt, 3600)
	_, path, _ := g.ShortestPath(0, roadnet.VertexID(g.NumVertices()-1))
	ix.Update(1, 0, path, 0, 0) // zero speed: only current partition
	if st := ix.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d", st.Entries)
	}
}

func TestPartitionIndexConcurrent(t *testing.T) {
	g, w := testPartitioning(t)
	ix := NewPartitionIndex(w.pt, 3600)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(id))
			for j := 0; j < 100; j++ {
				v := roadnet.VertexID(rng.Intn(g.NumVertices()))
				ix.Update(id, v, nil, float64(j), 4.17)
				ix.Taxis(w.pt.PartitionOf(v))
			}
		}(int64(i))
	}
	wg.Wait()
	if st := ix.Stats(); st.Taxis != 8 {
		t.Fatalf("taxis = %d", st.Taxis)
	}
}

func TestLocationGridBasic(t *testing.T) {
	min := geo.Point{Lat: 30.6, Lng: 104.0}
	max := geo.Point{Lat: 30.7, Lng: 104.1}
	lg := NewLocationGrid(min, max, 300)
	a := geo.Point{Lat: 30.65, Lng: 104.05}
	b := geo.Point{Lat: 30.651, Lng: 104.051} // ~150 m away
	far := geo.Point{Lat: 30.69, Lng: 104.09}
	lg.Update(1, a)
	lg.Update(2, b)
	lg.Update(3, far)
	got := lg.Near(a, 500)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Near = %v", got)
	}
	if lg.Size() != 3 {
		t.Fatalf("Size = %d", lg.Size())
	}
}

func TestLocationGridMoveAndRemove(t *testing.T) {
	min := geo.Point{Lat: 30.6, Lng: 104.0}
	max := geo.Point{Lat: 30.7, Lng: 104.1}
	lg := NewLocationGrid(min, max, 300)
	a := geo.Point{Lat: 30.61, Lng: 104.01}
	b := geo.Point{Lat: 30.69, Lng: 104.09}
	lg.Update(1, a)
	lg.Update(1, b) // move
	if got := lg.Near(a, 500); len(got) != 0 {
		t.Fatalf("stale position: %v", got)
	}
	if got := lg.Near(b, 500); len(got) != 1 {
		t.Fatalf("moved taxi missing: %v", got)
	}
	lg.Remove(1)
	if lg.Size() != 0 || len(lg.Near(b, 500)) != 0 {
		t.Fatal("remove failed")
	}
	lg.Remove(1) // idempotent
}

func TestLocationGridRadiusZero(t *testing.T) {
	lg := NewLocationGrid(geo.Point{Lat: 30, Lng: 104}, geo.Point{Lat: 31, Lng: 105}, 300)
	lg.Update(1, geo.Point{Lat: 30.5, Lng: 104.5})
	if got := lg.Near(geo.Point{Lat: 30.5, Lng: 104.5}, 0); got != nil {
		t.Fatalf("zero radius returned %v", got)
	}
}

func TestLocationGridSortedByDistance(t *testing.T) {
	lg := NewLocationGrid(geo.Point{Lat: 30, Lng: 104}, geo.Point{Lat: 31, Lng: 105}, 300)
	center := geo.Point{Lat: 30.5, Lng: 104.5}
	rng := rand.New(rand.NewSource(1))
	pos := make(map[int64]geo.Point)
	for i := int64(0); i < 50; i++ {
		p := geo.Point{
			Lat: 30.5 + (rng.Float64()-0.5)*0.02,
			Lng: 104.5 + (rng.Float64()-0.5)*0.02,
		}
		pos[i] = p
		lg.Update(i, p)
	}
	got := lg.Near(center, 3000)
	if len(got) == 0 {
		t.Fatal("nothing found")
	}
	prev := -1.0
	for _, id := range got {
		d := geo.Equirect(center, pos[id])
		if d < prev {
			t.Fatal("Near results not sorted by distance")
		}
		prev = d
	}
	if lg.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes not positive")
	}
}

func TestLocationGridNearOutsideBounds(t *testing.T) {
	min := geo.Point{Lat: 30.6, Lng: 104.0}
	max := geo.Point{Lat: 30.7, Lng: 104.1}
	lg := NewLocationGrid(min, max, 300)
	// Taxis in the extreme corner cells of the grid.
	atMin := geo.Point{Lat: 30.6001, Lng: 104.0001}
	atMax := geo.Point{Lat: 30.6999, Lng: 104.0999}
	lg.Update(1, atMin)
	lg.Update(2, atMax)

	// Query below/left of the min corner: the fractional cell offset is
	// negative, where truncation (instead of floor) used to shift the
	// scanned window. The corner taxi is ~150 m away and must be found.
	below := geo.Point{Lat: 30.599, Lng: 103.999}
	if got := lg.Near(below, 500); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Near below min corner = %v, want [1]", got)
	}
	// Query above/right of the max corner.
	above := geo.Point{Lat: 30.701, Lng: 104.101}
	if got := lg.Near(above, 500); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Near above max corner = %v, want [2]", got)
	}
	// Far outside: nothing within radius.
	if got := lg.Near(geo.Point{Lat: 30.5, Lng: 103.9}, 500); len(got) != 0 {
		t.Fatalf("Near far outside = %v, want none", got)
	}
}

func TestLocationGridNearOnCellEdge(t *testing.T) {
	min := geo.Point{Lat: 30.6, Lng: 104.0}
	max := geo.Point{Lat: 30.7, Lng: 104.1}
	lg := NewLocationGrid(min, max, 300)
	// A query point exactly on a cell-boundary lat/lng (and on the grid's
	// min corner itself) must behave like any interior point: taxis just
	// either side of the edge are both within radius and both returned.
	edge := geo.Point{Lat: min.Lat + 2*lg.cellLat, Lng: min.Lng + 2*lg.cellLng}
	lg.Update(1, geo.Point{Lat: edge.Lat + lg.cellLat/4, Lng: edge.Lng})
	lg.Update(2, geo.Point{Lat: edge.Lat - lg.cellLat/4, Lng: edge.Lng})
	if got := lg.Near(edge, 500); len(got) != 2 {
		t.Fatalf("Near on cell edge = %v, want both neighbours", got)
	}
	corner := geo.Point{Lat: min.Lat, Lng: min.Lng}
	lg.Update(3, geo.Point{Lat: min.Lat + lg.cellLat/4, Lng: min.Lng})
	if got := lg.Near(corner, 500); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Near on min corner = %v, want [3]", got)
	}
}

func TestLocationGridConcurrent(t *testing.T) {
	lg := NewLocationGrid(geo.Point{Lat: 30, Lng: 104}, geo.Point{Lat: 31, Lng: 105}, 300)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(id))
			for j := 0; j < 200; j++ {
				p := geo.Point{Lat: 30 + rng.Float64(), Lng: 104 + rng.Float64()}
				lg.Update(id, p)
				lg.Near(p, 1000)
			}
		}(int64(i))
	}
	wg.Wait()
	if lg.Size() != 8 {
		t.Fatalf("Size = %d", lg.Size())
	}
}

func BenchmarkPartitionIndexUpdate(b *testing.B) {
	g, err := roadnet.GenerateCity(roadnet.DefaultCityParams(20, 20))
	if err != nil {
		b.Fatal(err)
	}
	pt, err := partition.BuildGrid(g, nil, 20)
	if err != nil {
		b.Fatal(err)
	}
	ix := NewPartitionIndex(pt, 3600)
	_, path, _ := g.ShortestPath(0, roadnet.VertexID(g.NumVertices()-1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Update(int64(i%500), 0, path, float64(i), 4.17)
	}
}

func BenchmarkLocationGridNear(b *testing.B) {
	lg := NewLocationGrid(geo.Point{Lat: 30.6, Lng: 104.0}, geo.Point{Lat: 30.7, Lng: 104.1}, 300)
	rng := rand.New(rand.NewSource(1))
	for i := int64(0); i < 3000; i++ {
		lg.Update(i, geo.Point{Lat: 30.6 + rng.Float64()*0.1, Lng: 104.0 + rng.Float64()*0.1})
	}
	center := geo.Point{Lat: 30.65, Lng: 104.05}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = lg.Near(center, 2500)
	}
}

// modelArrivals is Update's contract written the obvious way: the taxi's
// first arrival per partition along its route, within the horizon.
func modelArrivals(pt *partition.Partitioning, horizon float64, at roadnet.VertexID, route []roadnet.VertexID, now, speed float64) map[partition.ID]float64 {
	arrivals := map[partition.ID]float64{pt.PartitionOf(at): now}
	if speed <= 0 {
		return arrivals
	}
	meters := 0.0
	for i := 0; i+1 < len(route); i++ {
		c, ok := pt.Graph().EdgeCost(route[i], route[i+1])
		if !ok {
			break
		}
		meters += c
		t := now + meters/speed
		if t > now+horizon {
			break
		}
		if _, seen := arrivals[pt.PartitionOf(route[i+1])]; !seen {
			arrivals[pt.PartitionOf(route[i+1])] = t
		}
	}
	return arrivals
}

// checkIndexInvariants holds the index to what candidate search relies on:
// every list strictly ordered by (arrival, taxi ID); Stats().Entries the sum
// of the list lengths; the lists, ArrivalAt and RowsOf telling one story,
// which is the model's; and Search returning the lists' taxis plus the
// deadline prefix of z's list.
func checkIndexInvariants(t *testing.T, ix *PartitionIndex, pt *partition.Partitioning, model map[int64]map[partition.ID]float64, rng *rand.Rand) {
	t.Helper()
	total := 0
	var all []partition.ID
	for p := partition.ID(0); int(p) < pt.NumPartitions(); p++ {
		all = append(all, p)
		list := ix.Taxis(p)
		total += len(list)
		for i, e := range list {
			if i > 0 && list[i-1].compare(e) >= 0 {
				t.Fatalf("partition %d: entry %d %+v does not follow %+v", p, i, e, list[i-1])
			}
			if want, ok := model[e.TaxiID][p]; !ok || want != e.ArrivalSeconds {
				t.Fatalf("partition %d lists taxi %d at %v, model has %v (%v)", p, e.TaxiID, e.ArrivalSeconds, want, ok)
			}
			if got, ok := ix.ArrivalAt(e.TaxiID, p); !ok || got != e.ArrivalSeconds {
				t.Fatalf("ArrivalAt(%d, %d) = %v, %v; the list has %v", e.TaxiID, p, got, ok, e.ArrivalSeconds)
			}
		}
	}
	want := 0
	for id, rows := range model {
		want += len(rows)
		got := ix.RowsOf(id)
		if len(got) != len(rows) {
			t.Fatalf("taxi %d has %d rows, model %d", id, len(got), len(rows))
		}
		for i, r := range got {
			if i > 0 && got[i-1].Partition >= r.Partition {
				t.Fatalf("taxi %d rows not ascending by partition: %v", id, got)
			}
			if rows[r.Partition] != r.ArrivalSeconds {
				t.Fatalf("taxi %d row %+v, model %v", id, r, rows[r.Partition])
			}
		}
	}
	if st := ix.Stats(); st.Entries != total || total != want || st.Taxis != len(model) {
		t.Fatalf("Stats %+v, lists hold %d entries, model %d entries of %d taxis", st, total, want, len(model))
	}
	if _, ok := ix.ArrivalAt(-1, 0); ok {
		t.Fatal("ArrivalAt knows a taxi that was never indexed")
	}

	// Search over a random partition subset.
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	parts, z := all[:rng.Intn(len(all)+1)], all[rng.Intn(len(all))]
	deadline := rng.Float64() * 4000
	if list := ix.Taxis(z); len(list) > 0 && rng.Intn(2) == 0 {
		deadline = list[rng.Intn(len(list))].ArrivalSeconds // arrival at the deadline makes it
	}
	taxis, reach := ix.Search(parts, z, deadline, []int64{-7}, []int64{-9})
	if taxis[0] != -7 || reach[0] != -9 {
		t.Fatal("Search does not append")
	}
	taxis, reach = taxis[1:], reach[1:]
	for _, p := range parts {
		for _, e := range ix.Taxis(p) {
			if len(taxis) == 0 || taxis[0] != e.TaxiID {
				t.Fatalf("Search taxis diverge from partition %d's list at taxi %d", p, e.TaxiID)
			}
			taxis = taxis[1:]
		}
	}
	if len(taxis) != 0 {
		t.Fatalf("Search returned %d taxis beyond the lists", len(taxis))
	}
	for _, e := range ix.Taxis(z) {
		if e.ArrivalSeconds <= deadline {
			if len(reach) == 0 || reach[0] != e.TaxiID {
				t.Fatalf("Search reach misses taxi %d arriving %v <= %v", e.TaxiID, e.ArrivalSeconds, deadline)
			}
			reach = reach[1:]
		}
	}
	if len(reach) != 0 {
		t.Fatalf("Search reach holds %d taxis past the deadline", len(reach))
	}
}

// TestPartitionIndexListsStayOrdered drives seeded sequences of Update,
// Remove and RestoreRows against the model, checking every invariant as it
// goes, while concurrent readers hammer every read path (run under -race in
// CI): a reader must never see a list out of order.
func TestPartitionIndexListsStayOrdered(t *testing.T) {
	g, w := testPartitioning(t)
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		horizon := []float64{3600, 400, 60}[seed%3]
		ix := NewPartitionIndex(w.pt, horizon)
		model := map[int64]map[partition.ID]float64{}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(r int64) {
				defer wg.Done()
				rr := rand.New(rand.NewSource(r))
				var taxis, reach []int64
				for {
					select {
					case <-stop:
						return
					default:
					}
					p := partition.ID(rr.Intn(w.pt.NumPartitions()))
					list := ix.Taxis(p)
					for i := 1; i < len(list); i++ {
						if list[i-1].compare(list[i]) >= 0 {
							t.Errorf("reader saw partition %d out of order: %v", p, list)
							return
						}
					}
					taxis, reach = ix.Search([]partition.ID{p, 0}, p, float64(rr.Intn(4000)), taxis[:0], reach[:0])
					ix.ArrivalAt(rr.Int63n(12), p)
					ix.RowsOf(rr.Int63n(12))
					ix.Stats()
				}
			}(int64(r))
		}

		for step := 0; step < 400; step++ {
			id := rng.Int63n(12)
			switch op := rng.Intn(10); {
			case op == 0:
				ix.Remove(id)
				delete(model, id)
			case op == 1:
				// A snapshot round trip, rows handed back in reverse order.
				rows := ix.RowsOf(id)
				for i, j := 0, len(rows)-1; i < j; i, j = i+1, j-1 {
					rows[i], rows[j] = rows[j], rows[i]
				}
				ix.RestoreRows(id, rows)
				if len(rows) == 0 {
					model[id] = map[partition.ID]float64{}
				}
			default:
				src := roadnet.VertexID(rng.Intn(g.NumVertices()))
				var route []roadnet.VertexID
				if rng.Intn(3) > 0 {
					_, route, _ = g.ShortestPath(src, roadnet.VertexID(rng.Intn(g.NumVertices())))
				}
				// Few distinct clock values and speeds, so arrival ties
				// between taxis (the taxi-ID tie-break) do occur.
				now, speed := float64(rng.Intn(5)*100), []float64{0, 4.17, 4.17, 12}[rng.Intn(4)]
				ix.Update(id, src, route, now, speed)
				model[id] = modelArrivals(w.pt, horizon, src, route, now, speed)
			}
			if step%8 == 0 {
				checkIndexInvariants(t, ix, w.pt, model, rng)
			}
		}
		checkIndexInvariants(t, ix, w.pt, model, rng)
		close(stop)
		wg.Wait()
	}
}

// BenchmarkPartitionIndexUpdateRoute re-indexes taxis driving cross-city
// routes: the list maintenance Update pays so that reads need not sort.
func BenchmarkPartitionIndexUpdateRoute(b *testing.B) {
	g, w := testPartitioning(b)
	ix := NewPartitionIndex(w.pt, 3600)
	n := g.NumVertices()
	routes := make([][]roadnet.VertexID, 64)
	for i := range routes {
		_, routes[i], _ = g.ShortestPath(roadnet.VertexID(i*37%n), roadnet.VertexID((i*101+n/2)%n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := routes[i%len(routes)]
		ix.Update(int64(i%200), r[0], r, float64(i), 4.17)
	}
}
