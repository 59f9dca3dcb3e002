package mobcluster

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/geo"
)

// vec builds a mobility vector from a compact origin and delta.
func vec(olat, olng, dlat, dlng float64) geo.MobilityVector {
	return geo.MobilityVector{OriginLat: olat, OriginLng: olng, DestLat: olat + dlat, DestLng: olng + dlng}
}

var (
	north = vec(30.60, 104.00, 0.05, 0)
	south = vec(30.70, 104.00, -0.05, 0)
	east  = vec(30.60, 104.00, 0, 0.05)
)

func TestFirstRequestFormsCluster(t *testing.T) {
	cs := New(0.707)
	cid := cs.AddRequest(1, north)
	if cs.NumClusters() != 1 {
		t.Fatalf("clusters = %d, want 1", cs.NumClusters())
	}
	got, ok := cs.RequestCluster(1)
	if !ok || got != cid {
		t.Fatalf("RequestCluster = %v, %v", got, ok)
	}
}

func TestSimilarRequestsShareCluster(t *testing.T) {
	cs := New(0.707)
	c1 := cs.AddRequest(1, north)
	c2 := cs.AddRequest(2, vec(30.61, 104.01, 0.05, 0.004)) // nearly north
	if c1 != c2 {
		t.Fatalf("similar requests split: %d vs %d", c1, c2)
	}
}

func TestDissimilarRequestsSplit(t *testing.T) {
	cs := New(0.707)
	c1 := cs.AddRequest(1, north)
	c2 := cs.AddRequest(2, south)
	c3 := cs.AddRequest(3, east)
	if c1 == c2 || c1 == c3 || c2 == c3 {
		t.Fatalf("orthogonal/opposite directions merged: %d %d %d", c1, c2, c3)
	}
	if cs.NumClusters() != 3 {
		t.Fatalf("clusters = %d, want 3", cs.NumClusters())
	}
}

func TestLambdaControlsMerging(t *testing.T) {
	// 60-degree separation: merges under lambda=cos(75°), splits under
	// cos(45°).
	a := vec(30.6, 104.0, 0.05, 0)
	b := vec(30.6, 104.0, 0.025, 0.0433) // ~60° east of north
	loose := New(geo.CosOfDegrees(75))
	if c1, c2 := loose.AddRequest(1, a), loose.AddRequest(2, b); c1 != c2 {
		t.Fatal("60° apart should merge under θmax=75°")
	}
	strict := New(geo.CosOfDegrees(45))
	if c1, c2 := strict.AddRequest(1, a), strict.AddRequest(2, b); c1 == c2 {
		t.Fatal("60° apart should split under θmax=45°")
	}
}

func TestGeneralVectorIsMemberAverage(t *testing.T) {
	cs := New(0.5)
	c1 := cs.AddRequest(1, vec(30.60, 104.00, 0.05, 0))
	cs.AddRequest(2, vec(30.62, 104.02, 0.05, 0))
	g, ok := cs.General(c1)
	if !ok {
		t.Fatal("cluster vanished")
	}
	if math.Abs(g.OriginLat-30.61) > 1e-9 || math.Abs(g.OriginLng-104.01) > 1e-9 {
		t.Fatalf("general origin = %v,%v", g.OriginLat, g.OriginLng)
	}
	if math.Abs(g.DestLat-30.66) > 1e-9 {
		t.Fatalf("general dest lat = %v", g.DestLat)
	}
}

func TestRemoveRequestUpdatesGeneralAndDeletesEmpty(t *testing.T) {
	cs := New(0.5)
	c := cs.AddRequest(1, north)
	cs.AddRequest(2, vec(30.61, 104.00, 0.05, 0))
	cs.RemoveRequest(1)
	g, ok := cs.General(c)
	if !ok {
		t.Fatal("cluster deleted while member remains")
	}
	if g.OriginLat != 30.61 {
		t.Fatalf("general not updated after removal: %v", g.OriginLat)
	}
	cs.RemoveRequest(2)
	if cs.NumClusters() != 0 {
		t.Fatalf("empty cluster survived: %d", cs.NumClusters())
	}
	if _, ok := cs.General(c); ok {
		t.Fatal("General returned dead cluster")
	}
	cs.RemoveRequest(99) // unknown: no-op
}

func TestReAddRequestMoves(t *testing.T) {
	cs := New(0.707)
	c1 := cs.AddRequest(1, north)
	c2 := cs.AddRequest(1, south) // same ID, new direction
	if c1 == c2 {
		t.Fatal("re-added request kept old cluster")
	}
	if cs.NumClusters() != 1 {
		t.Fatalf("old cluster not cleaned: %d clusters", cs.NumClusters())
	}
	if got, _ := cs.RequestCluster(1); got != c2 {
		t.Fatalf("RequestCluster = %d, want %d", got, c2)
	}
}

func TestTaxiJoinsMatchingCluster(t *testing.T) {
	cs := New(0.707)
	c := cs.AddRequest(1, north)
	tc := cs.UpdateTaxi(7, vec(30.58, 104.00, 0.06, 0.002))
	if tc != c {
		t.Fatalf("taxi joined %d, want request cluster %d", tc, c)
	}
	taxis := cs.Taxis(c)
	if len(taxis) != 1 || taxis[0] != 7 {
		t.Fatalf("Taxis = %v", taxis)
	}
}

func TestTaxiFormsOwnClusterWhenNothingMatches(t *testing.T) {
	cs := New(0.707)
	cs.AddRequest(1, north)
	tc := cs.UpdateTaxi(7, east)
	if got, _ := cs.RequestCluster(1); got == tc {
		t.Fatal("eastbound taxi joined northbound cluster")
	}
	if cs.NumClusters() != 2 {
		t.Fatalf("clusters = %d, want 2", cs.NumClusters())
	}
}

func TestUpdateTaxiMovesBetweenClusters(t *testing.T) {
	cs := New(0.707)
	cn := cs.AddRequest(1, north)
	ce := cs.AddRequest(2, east)
	cs.UpdateTaxi(7, vec(30.58, 104.0, 0.05, 0))
	if got, _ := cs.TaxiCluster(7); got != cn {
		t.Fatalf("taxi in %d, want north %d", got, cn)
	}
	cs.UpdateTaxi(7, vec(30.58, 104.0, 0, 0.05))
	if got, _ := cs.TaxiCluster(7); got != ce {
		t.Fatalf("after turn taxi in %d, want east %d", got, ce)
	}
	if ts := cs.Taxis(cn); len(ts) != 0 {
		t.Fatalf("north cluster still lists taxi: %v", ts)
	}
}

func TestRemoveTaxi(t *testing.T) {
	cs := New(0.707)
	cs.UpdateTaxi(7, north)
	if cs.NumClusters() != 1 {
		t.Fatal("taxi-only cluster missing")
	}
	cs.RemoveTaxi(7)
	if cs.NumClusters() != 0 {
		t.Fatal("taxi-only cluster survived removal")
	}
	cs.RemoveTaxi(7) // idempotent
	if _, ok := cs.TaxiCluster(7); ok {
		t.Fatal("TaxiCluster returned removed taxi")
	}
}

func TestBest(t *testing.T) {
	cs := New(0.707)
	cn := cs.AddRequest(1, north)
	cs.AddRequest(2, east)
	got, ok := cs.Best(vec(30.55, 104.0, 0.08, 0.001))
	if !ok || got != cn {
		t.Fatalf("Best = %v, %v; want %d", got, ok, cn)
	}
	if _, ok := cs.Best(vec(30.55, 104.0, -0.08, -0.06)); ok {
		t.Fatal("Best matched an incompatible direction")
	}
	empty := New(0.707)
	if _, ok := empty.Best(north); ok {
		t.Fatal("Best on empty set returned a cluster")
	}
}

func TestClusterSurvivesOnTaxisAfterRequestsLeave(t *testing.T) {
	cs := New(0.707)
	c := cs.AddRequest(1, north)
	cs.UpdateTaxi(7, vec(30.5, 104.0, 0.05, 0))
	cs.RemoveRequest(1)
	if cs.NumClusters() != 1 {
		t.Fatal("cluster with taxi was deleted")
	}
	g, ok := cs.General(c)
	if !ok {
		t.Fatal("General failed for taxi-only cluster")
	}
	// General must now come from the taxi member.
	if g.OriginLat != 30.5 {
		t.Fatalf("taxi-only general origin lat = %v", g.OriginLat)
	}
}

func TestStats(t *testing.T) {
	cs := New(0.707)
	cs.AddRequest(1, north)
	cs.AddRequest(2, east)
	cs.UpdateTaxi(7, south)
	s := cs.Stats()
	if s.Clusters != 3 || s.Requests != 2 || s.Taxis != 1 {
		t.Fatalf("Stats = %+v", s)
	}
	if s.MemoryBytes <= 0 {
		t.Fatal("MemoryBytes not positive")
	}
}

func TestNewPanicsOnBadLambda(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1.5)
}

func TestConcurrentOperations(t *testing.T) {
	cs := New(0.707)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				id := int64(seed*1000) + int64(i%50)
				v := vec(30.6, 104.0, rng.Float64()*0.1-0.05, rng.Float64()*0.1-0.05)
				switch i % 4 {
				case 0:
					cs.AddRequest(id, v)
				case 1:
					cs.RemoveRequest(id)
				case 2:
					cs.UpdateTaxi(id, v)
				case 3:
					cs.RemoveTaxi(id)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	// Invariant: every live membership points at a live cluster.
	s := cs.Stats()
	if s.Requests < 0 || s.Taxis < 0 {
		t.Fatal("negative counts")
	}
}

func TestManyRequestsClusterCountBounded(t *testing.T) {
	// Requests in 8 distinct compass directions under θmax=45° should
	// produce a bounded number of clusters, far fewer than requests.
	cs := New(geo.CosOfDegrees(45))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		dir := float64(i%8) * 45 * math.Pi / 180
		jitter := (rng.Float64() - 0.5) * 0.1
		dlat := 0.05 * (1 + jitter) * math.Cos(dir)
		dlng := 0.05 * (1 + jitter) * math.Sin(dir)
		cs.AddRequest(int64(i), vec(30.6+rng.Float64()*0.05, 104.0+rng.Float64()*0.05, dlat, dlng))
	}
	if n := cs.NumClusters(); n > 30 {
		t.Fatalf("clusters = %d, expected bounded growth", n)
	}
}

func BenchmarkAddRequest(b *testing.B) {
	cs := New(0.707)
	rng := rand.New(rand.NewSource(1))
	vs := make([]geo.MobilityVector, 4096)
	for i := range vs {
		vs[i] = vec(30.6+rng.Float64()*0.1, 104.0+rng.Float64()*0.1,
			rng.Float64()*0.1-0.05, rng.Float64()*0.1-0.05)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.AddRequest(int64(i%2048), vs[i%len(vs)])
	}
}

func BenchmarkBest(b *testing.B) {
	cs := New(0.707)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		cs.AddRequest(int64(i), vec(30.6+rng.Float64()*0.1, 104.0+rng.Float64()*0.1,
			rng.Float64()*0.1-0.05, rng.Float64()*0.1-0.05))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Best(north)
	}
}

func TestCompatibleTaxisUnionAcrossClusters(t *testing.T) {
	cs := New(geo.CosOfDegrees(45))
	// Two near-north clusters that fragmented, one east cluster.
	cs.AddRequest(1, vec(30.60, 104.00, 0.05, 0.00))
	cs.AddRequest(2, vec(30.60, 104.20, 0.035, 0.030)) // ~40 degrees east of north: own cluster
	cs.AddRequest(3, east)
	cs.UpdateTaxi(10, vec(30.55, 104.00, 0.06, 0.001)) // north
	cs.UpdateTaxi(11, vec(30.55, 104.20, 0.04, 0.032)) // NE
	cs.UpdateTaxi(12, vec(30.55, 104.40, 0.00, 0.06))  // east
	// A north-ish probe must see both the north and NE taxis but not the
	// east one.
	got := cs.CompatibleTaxis(vec(30.50, 104.10, 0.06, 0.012))
	has := map[int64]bool{}
	for _, id := range got {
		has[id] = true
	}
	if !has[10] || !has[11] {
		t.Fatalf("fragmented compatible taxis missing: %v", got)
	}
	if has[12] {
		t.Fatalf("orthogonal taxi included: %v", got)
	}
	if out := cs.CompatibleTaxis(vec(30, 104, 0, 0)); out != nil {
		t.Fatalf("zero vector matched: %v", out)
	}
}

// exactNorth builds a vector whose tangent-plane displacement is exactly
// (dx=0, dy=0.25): 30.0 and 0.25 are exact binary floats, so the dy
// subtraction, the squared norm (0.0625) and its square root (0.25) are
// all exact — cosine similarity against an identical vector is exactly
// 1.0, and against an exact-east vector exactly 0.0. That lets the
// threshold tests probe λ equality without tolerance fudge.
func exactNorth(olng float64) geo.MobilityVector {
	return geo.MobilityVector{OriginLat: 30.0, OriginLng: olng, DestLat: 30.25, DestLng: olng}
}

func exactEast(olng float64) geo.MobilityVector {
	return geo.MobilityVector{OriginLat: 30.0, OriginLng: olng, DestLat: 30.0, DestLng: olng + 0.25}
}

// TestExactThresholdLambdaOne: with λ = 1.0, a request whose similarity to
// an existing cluster is exactly 1.0 must join it (inclusive threshold,
// Eq. 1 cos ≥ λ), while any strictly smaller similarity must split. This
// is the regression test for bestLocked's old strict-inequality bug: a
// first candidate at exactly λ was never selected.
func TestExactThresholdLambdaOne(t *testing.T) {
	// Sanity: the constructed similarities are exactly 1 and exactly 0.
	if s := geo.CosineSimilarity(exactNorth(104.0), exactNorth(104.1)); s != 1.0 {
		t.Fatalf("constructed same-direction similarity = %v, want exactly 1.0", s)
	}
	if s := geo.CosineSimilarity(exactNorth(104.0), exactEast(104.0)); s != 0.0 {
		t.Fatalf("constructed orthogonal similarity = %v, want exactly 0.0", s)
	}

	cs := New(1.0)
	c1 := cs.AddRequest(1, exactNorth(104.0))
	if c2 := cs.AddRequest(2, exactNorth(104.1)); c2 != c1 {
		t.Fatalf("similarity exactly at lambda=1 split: cluster %d vs %d", c2, c1)
	}
	// The other side of the threshold: a slightly rotated vector has
	// similarity < 1 and must form its own cluster.
	tilted := geo.MobilityVector{OriginLat: 30.0, OriginLng: 104.2, DestLat: 30.25, DestLng: 104.2001}
	if c3 := cs.AddRequest(3, tilted); c3 == c1 {
		t.Fatal("similarity below lambda=1 joined the cluster")
	}
}

// TestExactThresholdLambdaZero probes λ = 0 with an exactly-orthogonal
// pair (similarity exactly 0.0): at the threshold it must match; with λ
// nudged above zero it must not.
func TestExactThresholdLambdaZero(t *testing.T) {
	cs := New(0.0)
	c1 := cs.AddRequest(1, exactEast(104.0))
	if cid, ok := cs.Best(exactNorth(104.0)); !ok || cid != c1 {
		t.Fatalf("similarity exactly at lambda=0 rejected: ok=%v cid=%d", ok, cid)
	}
	if c2 := cs.AddRequest(2, exactNorth(104.0)); c2 != c1 {
		t.Fatalf("orthogonal request with lambda=0 split: cluster %d vs %d", c2, c1)
	}

	above := New(1e-9)
	a1 := above.AddRequest(1, exactEast(104.0))
	if _, ok := above.Best(exactNorth(104.0)); ok {
		t.Fatal("similarity 0 cleared lambda=1e-9")
	}
	if a2 := above.AddRequest(2, exactNorth(104.0)); a2 == a1 {
		t.Fatal("orthogonal request joined despite lambda above 0")
	}
}

// TestZeroVectorNeverClusters pins the degenerate-request convention: a
// zero-magnitude mobility vector (origin == destination) has no direction,
// so it forms a singleton cluster, Best reports no match, and
// CompatibleTaxis returns nothing — even when λ ≤ 0 would otherwise let
// CosineSimilarity's 0-for-zero-norm convention match everything.
func TestZeroVectorNeverClusters(t *testing.T) {
	zero := geo.MobilityVector{OriginLat: 30.0, OriginLng: 104.0, DestLat: 30.0, DestLng: 104.0}
	if s := geo.CosineSimilarity(zero, north); s != 0 {
		t.Fatalf("zero-vector similarity = %v, want 0 (defined, not NaN)", s)
	}
	for _, lambda := range []float64{-1, 0, 0.707} {
		cs := New(lambda)
		cs.AddRequest(1, north)
		cs.UpdateTaxi(10, north)
		if _, ok := cs.Best(zero); ok {
			t.Fatalf("lambda=%v: Best matched a zero vector", lambda)
		}
		if out := cs.CompatibleTaxis(zero); out != nil {
			t.Fatalf("lambda=%v: CompatibleTaxis matched a zero vector: %v", lambda, out)
		}
		c1, _ := cs.RequestCluster(1)
		if cz := cs.AddRequest(2, zero); cz == c1 {
			t.Fatalf("lambda=%v: zero vector joined a real cluster", lambda)
		}
		// A second zero vector forms yet another singleton rather than
		// pairing with the first one.
		cz1, _ := cs.RequestCluster(2)
		if cz2 := cs.AddRequest(3, zero); cz2 == cz1 {
			t.Fatalf("lambda=%v: two zero vectors clustered together", lambda)
		}
	}
}

// TestTaxiOnlyGeneralIndependentOfInsertionOrder pins a taxi-only cluster's
// general vector to a sum in ascending taxi-ID order: the same five taxis
// registered in shuffled orders (and once restored from a snapshot) must
// give bit-identical vectors. Summed in map-iteration order they do not.
func TestTaxiOnlyGeneralIndependentOfInsertionOrder(t *testing.T) {
	taxis := []geo.MobilityVector{
		vec(30.1, 104.7, 0.05, 0.001), vec(30.7, 104.1, 0.0512345678, 0.002), vec(30.3, 104.9123456789, 0.047, -0.001),
		vec(30.9123456789, 104.3, 0.0533, 0.0007), vec(30.55, 104.05, 0.049, -0.0003),
	}
	rng := rand.New(rand.NewSource(4))
	sums := map[uint64]bool{}
	for trial := 0; trial < 200; trial++ {
		s := 0.0
		for _, i := range rng.Perm(len(taxis)) {
			s += taxis[i].DestLat
		}
		sums[math.Float64bits(s)] = true
	}
	if len(sums) < 2 {
		t.Fatal("the vectors sum to the same bits in every order; pick others")
	}

	bits := func(v geo.MobilityVector) [4]uint64 {
		return [4]uint64{math.Float64bits(v.OriginLat), math.Float64bits(v.OriginLng), math.Float64bits(v.DestLat), math.Float64bits(v.DestLng)}
	}
	var want [4]uint64
	for trial := 0; trial < 200; trial++ {
		cs := New(0.707)
		var cid ClusterID
		for n, i := range rng.Perm(len(taxis)) {
			c := cs.UpdateTaxi(int64(100+i), taxis[i])
			if n > 0 && c != cid {
				t.Fatalf("trial %d: taxi %d opened cluster %d, the others share %d", trial, i, c, cid)
			}
			cid = c
		}
		if ids := cs.Taxis(cid); !sort.SliceIsSorted(ids, func(a, b int) bool { return ids[a] < ids[b] }) || len(ids) != len(taxis) {
			t.Fatalf("trial %d: cluster taxi list %v is not the five taxis in ascending order", trial, ids)
		}
		v, _ := cs.General(cid)
		restored := New(0.707)
		if err := restored.RestoreState(cs.CaptureState()); err != nil {
			t.Fatal(err)
		}
		rv, _ := restored.General(cid)
		if trial == 0 {
			want = bits(v)
		}
		if bits(v) != want || bits(rv) != want {
			t.Fatalf("trial %d: general vector %x (restored %x), first trial %x", trial, bits(v), bits(rv), want)
		}
	}
}

// TestCompatibleClustersNamesTheUnion ties CompatibleClusters to the union
// it replaces on the serving path: over seeded cluster sets, a taxi is in
// CompatibleTaxis(v) exactly when its TaxiCluster is among
// CompatibleClusters(v).
func TestCompatibleClustersNamesTheUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	randVec := func() geo.MobilityVector {
		if rng.Intn(12) == 0 {
			return vec(30.6, 104, 0, 0) // zero magnitude: compatible with nothing
		}
		return vec(30.5+rng.Float64()*0.2, 104+rng.Float64()*0.2, rng.Float64()*0.1-0.05, rng.Float64()*0.1-0.05)
	}
	for _, lambda := range []float64{0.707, 0, -1, 1} {
		cs := New(lambda)
		for step := 0; step < 600; step++ {
			switch id := rng.Int63n(40); rng.Intn(5) {
			case 0:
				cs.RemoveTaxi(id)
			case 1:
				cs.AddRequest(id, randVec())
			case 2:
				cs.RemoveRequest(id)
			default:
				cs.UpdateTaxi(id, randVec())
			}
			if step%5 != 0 {
				continue
			}
			v := randVec()
			union := map[int64]bool{}
			for _, id := range cs.CompatibleTaxis(v) {
				union[id] = true
			}
			clusters := cs.CompatibleClusters([]ClusterID{NoCluster}, v)
			if clusters[0] != NoCluster {
				t.Fatal("CompatibleClusters does not append")
			}
			for id := int64(0); id < 40; id++ {
				c, ok := cs.TaxiCluster(id)
				in := false
				for _, cc := range clusters[1:] {
					in = in || (ok && cc == c)
				}
				if in != union[id] {
					t.Fatalf("lambda %v step %d: taxi %d in cluster %d: by cluster compare %v, in the union %v", lambda, step, id, c, in, union[id])
				}
			}
		}
	}
}
