package baseline

import (
	"context"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/roadnet"
)

// paperGamma is the paper's candidate search radius γ (Table II: 2.5 km).
const paperGamma = 2500.0

type benv struct {
	g   *roadnet.Graph
	spx *roadnet.SpatialIndex
	ch  *roadnet.CH
}

func newBenv(t testing.TB) *benv {
	t.Helper()
	g, err := roadnet.GenerateCity(roadnet.DefaultCityParams(14, 14))
	if err != nil {
		t.Fatal(err)
	}
	return &benv{g: g, spx: roadnet.NewSpatialIndex(g, 250), ch: roadnet.BuildCH(g)}
}

// router is a fresh router over the test city's hierarchy.
func (env *benv) router() *roadnet.Router { return roadnet.NewRouter(env.g, 64).AttachCH(env.ch) }

func (env *benv) vertexNear(t testing.TB, fLat, fLng float64) roadnet.VertexID {
	t.Helper()
	min, max := env.g.Bounds()
	v, ok := env.spx.NearestVertex(geo.Point{
		Lat: min.Lat + fLat*(max.Lat-min.Lat),
		Lng: min.Lng + fLng*(max.Lng-min.Lng),
	})
	if !ok {
		t.Fatal("no vertex")
	}
	return v
}

func (env *benv) request(t testing.TB, id int64, o, d roadnet.VertexID, releaseSeconds, rho float64) *fleet.Request {
	t.Helper()
	direct, _, ok := env.g.ShortestPath(o, d)
	if !ok {
		t.Fatal("unroutable request")
	}
	directSec := direct / fleet.PaperSpeedMps
	return &fleet.Request{
		ID:           fleet.RequestID(id),
		ReleaseAt:    time.Duration(releaseSeconds * float64(time.Second)),
		Origin:       o,
		Dest:         d,
		Deadline:     time.Duration((releaseSeconds + directSec*rho) * float64(time.Second)),
		DirectMeters: direct,
		Passengers:   1,
		OriginPt:     env.g.Point(o),
		DestPt:       env.g.Point(d),
	}
}

func TestNoSharingServesNearestVacant(t *testing.T) {
	env := newBenv(t)
	s := NewNoSharing(env.router(), paperGamma)
	near := fleet.NewTaxi(env.g, 1, 3, env.vertexNear(t, 0.52, 0.52))
	far := fleet.NewTaxi(env.g, 2, 3, env.vertexNear(t, 0.62, 0.62))
	s.AddTaxi(near, 0)
	s.AddTaxi(far, 0)
	req := env.request(t, 1, env.vertexNear(t, 0.5, 0.5), env.vertexNear(t, 0.8, 0.8), 0, 1.5)
	res := s.OnRequest(context.Background(), req, 0)
	if !res.Served || res.TaxiID != 1 {
		t.Fatalf("result = %+v", res)
	}
	if near.Empty() {
		t.Fatal("plan not installed")
	}
	// Occupied taxi must not be reused while serving.
	req2 := env.request(t, 2, env.vertexNear(t, 0.5, 0.5), env.vertexNear(t, 0.8, 0.8), 1, 1.5)
	res2 := s.OnRequest(context.Background(), req2, 1)
	if !res2.Served || res2.TaxiID != 2 {
		t.Fatalf("second result = %+v", res2)
	}
}

func TestNoSharingNoVacantTaxi(t *testing.T) {
	env := newBenv(t)
	s := NewNoSharing(env.router(), paperGamma)
	taxi := fleet.NewTaxi(env.g, 1, 3, env.vertexNear(t, 0.5, 0.5))
	s.AddTaxi(taxi, 0)
	req := env.request(t, 1, env.vertexNear(t, 0.5, 0.52), env.vertexNear(t, 0.8, 0.8), 0, 1.5)
	if res := s.OnRequest(context.Background(), req, 0); !res.Served {
		t.Fatal("setup dispatch failed")
	}
	req2 := env.request(t, 2, env.vertexNear(t, 0.5, 0.5), env.vertexNear(t, 0.8, 0.8), 1, 1.5)
	if res := s.OnRequest(context.Background(), req2, 1); res.Served {
		t.Fatal("occupied taxi served under NoSharing")
	}
}

func TestNoSharingOutOfRange(t *testing.T) {
	env := newBenv(t)
	s := NewNoSharing(env.router(), 50)
	s.AddTaxi(fleet.NewTaxi(env.g, 1, 3, env.vertexNear(t, 0.05, 0.05)), 0)
	req := env.request(t, 1, env.vertexNear(t, 0.9, 0.9), env.vertexNear(t, 0.5, 0.5), 0, 1.5)
	if res := s.OnRequest(context.Background(), req, 0); res.Served {
		t.Fatal("taxi outside gamma served request")
	}
}

func TestTShareSharesARide(t *testing.T) {
	env := newBenv(t)
	s := NewTShare(env.router(), 3000)
	taxi := fleet.NewTaxi(env.g, 1, 3, env.vertexNear(t, 0.2, 0.2))
	s.AddTaxi(taxi, 0)
	r1 := env.request(t, 1, env.vertexNear(t, 0.2, 0.2), env.vertexNear(t, 0.8, 0.8), 0, 1.6)
	if res := s.OnRequest(context.Background(), r1, 0); !res.Served {
		t.Fatal("first request unserved")
	}
	r2 := env.request(t, 2, env.vertexNear(t, 0.3, 0.3), env.vertexNear(t, 0.7, 0.7), 5, 1.8)
	res := s.OnRequest(context.Background(), r2, 5)
	if !res.Served || res.TaxiID != 1 {
		t.Fatalf("sharing failed: %+v", res)
	}
	if len(taxi.Schedule()) != 4 {
		t.Fatalf("schedule = %d events", len(taxi.Schedule()))
	}
	if !fleet.ValidSequence(taxi.Schedule()) {
		t.Fatal("invalid schedule")
	}
}

func TestTShareDualSideFiltersOppositeTaxis(t *testing.T) {
	env := newBenv(t)
	s := NewTShare(env.router(), 600)
	// Occupied taxi heading away from the request's destination.
	taxi := fleet.NewTaxi(env.g, 1, 3, env.vertexNear(t, 0.5, 0.5))
	s.AddTaxi(taxi, 0)
	away := env.request(t, 10, env.vertexNear(t, 0.5, 0.5), env.vertexNear(t, 0.5, 0.05), 0, 1.6)
	if res := s.OnRequest(context.Background(), away, 0); !res.Served {
		t.Fatal("setup failed")
	}
	// Request going the other way: the taxi is near the origin but heads
	// away from the destination, so the dual-side search rejects it.
	req := env.request(t, 1, env.vertexNear(t, 0.5, 0.55), env.vertexNear(t, 0.5, 0.95), 1, 1.5)
	res := s.OnRequest(context.Background(), req, 1)
	if res.Served {
		t.Fatalf("opposite-direction taxi accepted: %+v", res)
	}
	if res.Candidates != 0 {
		t.Fatalf("opposite taxi still counted as candidate: %+v", res)
	}
}

func TestPGreedyDPPicksMinimumDetour(t *testing.T) {
	env := newBenv(t)
	s := NewPGreedyDP(env.router(), 3000)
	// Taxi A sits at the origin; taxi B is farther away.
	o := env.vertexNear(t, 0.5, 0.5)
	d := env.vertexNear(t, 0.8, 0.8)
	tA := fleet.NewTaxi(env.g, 1, 3, o)
	tB := fleet.NewTaxi(env.g, 2, 3, env.vertexNear(t, 0.3, 0.3))
	s.AddTaxi(tA, 0)
	s.AddTaxi(tB, 0)
	req := env.request(t, 1, o, d, 0, 1.5)
	res := s.OnRequest(context.Background(), req, 0)
	if !res.Served || res.TaxiID != 1 {
		t.Fatalf("result = %+v", res)
	}
	if res.Candidates < 2 {
		t.Fatalf("candidates = %d, want both taxis", res.Candidates)
	}
}

func TestPGreedyDPHasMoreCandidatesThanTShare(t *testing.T) {
	// Table III's ordering: pGreedyDP examines more candidates because it
	// never direction-filters.
	env := newBenv(t)
	gamma := 3000.0
	sp := NewPGreedyDP(env.router(), gamma)
	st := NewTShare(env.router(), gamma)
	// A mix of occupied taxis in both directions.
	for i := int64(0); i < 6; i++ {
		f := 0.3 + 0.05*float64(i)
		tp := fleet.NewTaxi(env.g, i, 3, env.vertexNear(t, f, f))
		tt := fleet.NewTaxi(env.g, i, 3, env.vertexNear(t, f, f))
		sp.AddTaxi(tp, 0)
		st.AddTaxi(tt, 0)
		var r *fleet.Request
		if i%2 == 0 {
			r = env.request(t, 100+i, env.vertexNear(t, f, f), env.vertexNear(t, 0.9, 0.9), 0, 1.8)
		} else {
			r = env.request(t, 100+i, env.vertexNear(t, f, f), env.vertexNear(t, 0.05, 0.05), 0, 1.8)
		}
		sp.OnRequest(context.Background(), r, 0)
		rCopy := *r
		st.OnRequest(context.Background(), &rCopy, 0)
	}
	req := env.request(t, 1, env.vertexNear(t, 0.45, 0.45), env.vertexNear(t, 0.9, 0.9), 10, 1.5)
	rp := sp.OnRequest(context.Background(), req, 10)
	reqCopy := *req
	reqCopy.ID = 2
	rt := st.OnRequest(context.Background(), &reqCopy, 10)
	if rp.Candidates < rt.Candidates {
		t.Fatalf("pGreedyDP candidates %d < T-Share %d", rp.Candidates, rt.Candidates)
	}
}

func TestBaselineTryServeOffline(t *testing.T) {
	env := newBenv(t)
	s := NewTShare(env.router(), paperGamma)
	o := env.vertexNear(t, 0.3, 0.3)
	taxi := fleet.NewTaxi(env.g, 1, 3, o)
	s.AddTaxi(taxi, 0)
	r1 := env.request(t, 1, o, env.vertexNear(t, 0.8, 0.8), 0, 1.8)
	if res := s.OnRequest(context.Background(), r1, 0); !res.Served {
		t.Fatal("setup failed")
	}
	off := env.request(t, 2, env.vertexNear(t, 0.4, 0.4), env.vertexNear(t, 0.7, 0.7), 0, 1.8)
	off.Offline = true
	if !s.TryServeOffline(taxi, off, 0) {
		t.Fatal("compatible offline request rejected")
	}
	// NoSharing: occupied taxi never takes an offline request.
	ns := NewNoSharing(env.router(), paperGamma)
	taxi2 := fleet.NewTaxi(env.g, 5, 3, o)
	ns.AddTaxi(taxi2, 0)
	r3 := env.request(t, 3, o, env.vertexNear(t, 0.8, 0.8), 0, 1.8)
	if res := ns.OnRequest(context.Background(), r3, 0); !res.Served {
		t.Fatal("setup failed")
	}
	off2 := env.request(t, 4, env.vertexNear(t, 0.4, 0.4), env.vertexNear(t, 0.7, 0.7), 0, 1.8)
	off2.Offline = true
	if ns.TryServeOffline(taxi2, off2, 0) {
		t.Fatal("NoSharing shared a ride")
	}
}

func TestOnTaxiAdvancedUpdatesGrid(t *testing.T) {
	env := newBenv(t)
	s := NewNoSharing(env.router(), 600)
	start := env.vertexNear(t, 0.1, 0.1)
	taxi := fleet.NewTaxi(env.g, 1, 3, start)
	s.AddTaxi(taxi, 0)
	// Move the taxi across the city without telling the grid: a request
	// at the new position must miss, then hit after OnTaxiAdvanced.
	dest := env.vertexNear(t, 0.9, 0.9)
	if err := taxi.SetPlan(nil, [][]roadnet.VertexID{mustPath(t, env.g, start, dest)}); err != nil {
		t.Fatal(err)
	}
	for len(taxi.Route()) > 1 {
		taxi.Advance(1e6)
	}
	req := env.request(t, 1, dest, env.vertexNear(t, 0.5, 0.5), 0, 1.5)
	if res := s.OnRequest(context.Background(), req, 0); res.Served {
		t.Fatal("stale grid served request")
	}
	s.OnTaxiAdvanced(taxi, 0)
	req2 := env.request(t, 2, dest, env.vertexNear(t, 0.5, 0.5), 0, 1.5)
	if res := s.OnRequest(context.Background(), req2, 0); !res.Served {
		t.Fatal("fresh grid failed to serve")
	}
}

func mustPath(t testing.TB, g *roadnet.Graph, u, v roadnet.VertexID) []roadnet.VertexID {
	t.Helper()
	_, p, ok := g.ShortestPath(u, v)
	if !ok {
		t.Fatal("no path")
	}
	return p
}

func TestPlanIdleAndMemory(t *testing.T) {
	env := newBenv(t)
	s := NewTShare(env.router(), paperGamma)
	taxi := fleet.NewTaxi(env.g, 1, 3, 0)
	s.AddTaxi(taxi, 0)
	if s.PlanIdle(taxi, 0) {
		t.Fatal("baseline cruised")
	}
	if s.IndexMemoryBytes() <= 0 {
		t.Fatal("memory not reported")
	}
	if s.Name() != "T-Share" {
		t.Fatal("name wrong")
	}
	s.OnRequestCompleted(nil, 0) // no-op must not panic
}

func BenchmarkTShareOnRequest(b *testing.B) {
	env := newBenv(b)
	s := NewTShare(env.router(), paperGamma)
	for i := int64(0); i < 50; i++ {
		f := 0.1 + 0.8*float64(i)/50
		s.AddTaxi(fleet.NewTaxi(env.g, i, 3, env.vertexNear(b, f, 1-f)), 0)
	}
	req := env.request(b, 1, env.vertexNear(b, 0.5, 0.5), env.vertexNear(b, 0.9, 0.9), 0, 1.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := *req
		r.ID = fleet.RequestID(i + 10)
		s.OnRequest(context.Background(), &r, 0)
	}
}

func BenchmarkPGreedyDPOnRequest(b *testing.B) {
	env := newBenv(b)
	s := NewPGreedyDP(env.router(), paperGamma)
	for i := int64(0); i < 50; i++ {
		f := 0.1 + 0.8*float64(i)/50
		s.AddTaxi(fleet.NewTaxi(env.g, i, 3, env.vertexNear(b, f, 1-f)), 0)
	}
	req := env.request(b, 1, env.vertexNear(b, 0.5, 0.5), env.vertexNear(b, 0.9, 0.9), 0, 1.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := *req
		r.ID = fleet.RequestID(i + 10)
		s.OnRequest(context.Background(), &r, 0)
	}
}
