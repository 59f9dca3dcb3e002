package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/fleet"
	"repro/internal/payment"
	"repro/internal/replay"
	"repro/internal/service"
)

func newTestServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(Config{CityRows: 14, CityCols: 14, InitialTaxis: 10, Capacity: 3, Speedup: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func do(t *testing.T, h http.Handler, method, path string, body interface{}) (*httptest.ResponseRecorder, map[string]json.RawMessage) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	out := map[string]json.RawMessage{}
	_ = json.Unmarshal(rec.Body.Bytes(), &out)
	return rec, out
}

func cityPoint(s *Server, fLat, fLng float64) map[string]float64 {
	min, max := s.rt.Graph.Bounds()
	return map[string]float64{
		"lat": min.Lat + fLat*(max.Lat-min.Lat),
		"lng": min.Lng + fLng*(max.Lng-min.Lng),
	}
}

func TestServerLifecycle(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()

	// Fleet listing.
	rec, _ := do(t, h, http.MethodGet, "/v1/taxis", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/taxis = %d", rec.Code)
	}
	var taxis []map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &taxis); err != nil {
		t.Fatal(err)
	}
	if len(taxis) != 10 {
		t.Fatalf("fleet = %d", len(taxis))
	}

	// Register a taxi.
	rec, out := do(t, h, http.MethodPost, "/v1/taxis", map[string]interface{}{
		"lat": cityPoint(s, 0.5, 0.5)["lat"], "lng": cityPoint(s, 0.5, 0.5)["lng"], "capacity": 4,
	})
	if rec.Code != http.StatusCreated {
		t.Fatalf("POST /v1/taxis = %d: %s", rec.Code, rec.Body)
	}
	if string(out["id"]) == "" {
		t.Fatal("no taxi id returned")
	}

	// Submit a request.
	rec, out = do(t, h, http.MethodPost, "/v1/requests", map[string]interface{}{
		"pickup":  cityPoint(s, 0.45, 0.45),
		"dropoff": cityPoint(s, 0.9, 0.9),
		"rho":     1.5,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/requests = %d: %s", rec.Code, rec.Body)
	}
	var served bool
	if err := json.Unmarshal(out["served"], &served); err != nil {
		t.Fatal(err)
	}
	if !served {
		t.Fatalf("request not served: %s", rec.Body)
	}
	var id int64
	if err := json.Unmarshal(out["id"], &id); err != nil {
		t.Fatal(err)
	}
	var eta float64
	if err := json.Unmarshal(out["dropoff_eta_seconds"], &eta); err != nil || eta <= 0 {
		t.Fatalf("dropoff eta = %v, %v", eta, err)
	}

	// Poll status.
	rec, out = do(t, h, http.MethodGet, fmt.Sprintf("/v1/requests?id=%d", id), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/requests = %d", rec.Code)
	}
	if err := json.Unmarshal(out["served"], &served); err != nil || !served {
		t.Fatal("status lost the assignment")
	}

	// Stats.
	rec, out = do(t, h, http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d", rec.Code)
	}
	var nTaxis int
	if err := json.Unmarshal(out["taxis"], &nTaxis); err != nil || nTaxis != 11 {
		t.Fatalf("stats taxis = %d", nTaxis)
	}
}

func TestServerDeliversOverSimulatedTime(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	rec, out := do(t, h, http.MethodPost, "/v1/requests", map[string]interface{}{
		"pickup":  cityPoint(s, 0.4, 0.4),
		"dropoff": cityPoint(s, 0.7, 0.7),
		"rho":     1.6,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("POST = %d", rec.Code)
	}
	var served bool
	_ = json.Unmarshal(out["served"], &served)
	if !served {
		t.Skip("no feasible taxi for this placement")
	}
	var id int64
	_ = json.Unmarshal(out["id"], &id)
	// Drive the world forward directly (no background loop in tests).
	for i := 0; i < 2000; i++ {
		s.advance(5)
		_, out = do(t, h, http.MethodGet, fmt.Sprintf("/v1/requests?id=%d", id), nil)
		var delivered bool
		_ = json.Unmarshal(out["delivered"], &delivered)
		if !delivered {
			if _, ok := out["fare"]; ok {
				t.Fatalf("fare reported before delivery: %s", out["fare"])
			}
			continue
		}
		var estimate, fare float64
		_ = json.Unmarshal(out["fare_estimate"], &estimate)
		if estimate <= 0 {
			t.Fatal("delivered with no fare")
		}
		// A lone rider shares no benefit, so the settled fare is the tariff.
		if err := json.Unmarshal(out["fare"], &fare); err != nil || fare != estimate {
			t.Fatalf("delivered lone rider's fare = %s, want the estimate %v", out["fare"], estimate)
		}
		return
	}
	t.Fatal("request never delivered")
}

// TestServerSettlesSharedFare puts an online request and a street hail
// on one taxi, as examples/dispatch_service does. No fare is reported
// before delivery, and the first one reported is final: each rider's fare
// is Eqs. 5–8 over the ledger's odometer readings, none above its
// estimate and at least one below.
func TestServerSettlesSharedFare(t *testing.T) {
	s, err := New(Config{CityRows: 20, CityCols: 20, InitialTaxis: 15, Capacity: 3, Policy: replay.Policy{Probabilistic: true}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	anchor := s.rt.Taxis()[0].Point()
	at := func(d float64) map[string]float64 {
		return map[string]float64{"lat": anchor.Lat + d, "lng": anchor.Lng + d}
	}
	_, ride := do(t, h, http.MethodPost, "/v1/requests", map[string]interface{}{"pickup": at(0), "dropoff": at(0.01), "rho": 1.6})
	_, hail := do(t, h, http.MethodPost, "/v1/hails", map[string]interface{}{
		"taxi_id": 1, "pickup": at(0.002), "dropoff": at(0.009), "rho": 1.8,
	})
	ids := make([]int64, 2)
	for i, out := range []map[string]json.RawMessage{ride, hail} {
		var taxi int64
		_ = json.Unmarshal(out["id"], &ids[i])
		if err := json.Unmarshal(out["taxi_id"], &taxi); err != nil || taxi != 1 {
			t.Fatalf("ride %d: taxi %s, want 1", i, out["taxi_id"])
		}
	}
	outs := make([]map[string]json.RawMessage, 2)
	first := make([]json.RawMessage, 2) // the first fare each status reported
	for step := 0; step < 2000; step++ {
		s.advance(5)
		delivered := 0
		for i, id := range ids {
			_, outs[i] = do(t, h, http.MethodGet, fmt.Sprintf("/v1/requests?id=%d", id), nil)
			var d bool
			_ = json.Unmarshal(outs[i]["delivered"], &d)
			fare, ok := outs[i]["fare"]
			if ok && !d {
				t.Fatalf("request %d: fare reported before delivery: %s", id, fare)
			}
			if ok && first[i] == nil {
				first[i] = fare
			}
			if d {
				delivered++
			}
		}
		if delivered == 2 {
			break
		}
	}
	// The two rides are taxi 1's whole episode, settled in dropoff order.
	sts := make([]*service.Request, 2)
	for i, id := range ids {
		sts[i], _ = s.rt.Request(id)
		if !sts[i].Delivered {
			t.Fatalf("request %d never delivered", id)
		}
	}
	if sts[1].DropoffOdo < sts[0].DropoffOdo {
		sts[0], sts[1] = sts[1], sts[0]
	}
	recs := make([]payment.RideRecord, 2)
	for i, st := range sts {
		recs[i] = payment.RideRecord{ID: st.Req.ID, DirectMeters: st.Req.DirectMeters, SharedMeters: st.DropoffOdo - st.PickupOdo, Completed: true}
	}
	settled := s.rt.Pay.Settle(sts[1].DropoffOdo-min(sts[0].PickupOdo, sts[1].PickupOdo), recs)
	below := false
	for i, id := range ids {
		var fare, estimate float64
		if err := json.Unmarshal(outs[i]["fare"], &fare); err != nil {
			t.Fatalf("request %d: delivered with no fare: %v", id, err)
		}
		_ = json.Unmarshal(outs[i]["fare_estimate"], &estimate)
		if want := settled.Fares[fleet.RequestID(id)]; fare != want || !bytes.Equal(first[i], outs[i]["fare"]) {
			t.Fatalf("request %d: fare %v (first reported %s), want the settled %v", id, fare, first[i], want)
		}
		if fare > estimate {
			t.Fatalf("request %d: fare %v above its estimate %v", id, fare, estimate)
		}
		below = below || fare < estimate
	}
	if !below {
		t.Fatal("no shared rider paid less than the estimate")
	}
}

func TestServerBadInputs(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	rec, _ := do(t, h, http.MethodGet, "/v1/requests?id=abc", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad id = %d", rec.Code)
	}
	rec, _ = do(t, h, http.MethodGet, "/v1/requests?id=999", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown id = %d", rec.Code)
	}
	rec, _ = do(t, h, http.MethodDelete, "/v1/taxis", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE = %d", rec.Code)
	}
	// Same pickup and dropoff.
	p := cityPoint(s, 0.5, 0.5)
	rec, _ = do(t, h, http.MethodPost, "/v1/requests", map[string]interface{}{
		"pickup": p, "dropoff": p,
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("degenerate request = %d", rec.Code)
	}
}

func TestServerStartStop(t *testing.T) {
	s := newTestServer(t)
	s.Start()
	s.Stop()
	if s.String() == "" {
		t.Fatal("empty description")
	}
	_ = s.Now()
}

func TestServerStreetHail(t *testing.T) {
	s, err := New(Config{CityRows: 14, CityCols: 14, InitialTaxis: 8, Capacity: 3, Policy: replay.Policy{Probabilistic: true}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	// Find a taxi to hail.
	rec, _ := do(t, h, http.MethodGet, "/v1/taxis", nil)
	var taxis []map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &taxis); err != nil {
		t.Fatal(err)
	}
	id := int64(taxis[0]["id"].(float64))
	pos := taxis[0]["position"].(map[string]interface{})
	pickup := map[string]float64{"lat": pos["lat"].(float64), "lng": pos["lng"].(float64)}
	rec, out := do(t, h, http.MethodPost, "/v1/hails", map[string]interface{}{
		"taxi_id": id,
		"pickup":  pickup,
		"dropoff": cityPoint(s, 0.85, 0.85),
		"rho":     1.6,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/hails = %d: %s", rec.Code, rec.Body)
	}
	var served bool
	if err := json.Unmarshal(out["served"], &served); err != nil || !served {
		t.Fatalf("hail unserved: %s", rec.Body)
	}
	// Unknown taxi.
	rec, _ = do(t, h, http.MethodPost, "/v1/hails", map[string]interface{}{
		"taxi_id": 999, "pickup": pickup, "dropoff": cityPoint(s, 0.8, 0.8),
	})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown taxi hail = %d", rec.Code)
	}
	// Stats expose engine counters.
	rec, out = do(t, h, http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatal("stats failed")
	}
	if _, ok := out["offline_insertions"]; !ok {
		t.Fatal("engine counters missing from stats")
	}
}

// TestServerVersionedRoutes pins the route table: every route answers
// under /v1/ and nowhere else, and the 404 catch-all that answers the rest
// mints no per-route latency series.
func TestServerVersionedRoutes(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	for _, route := range []string{"taxis", "stats", "queue", "metrics", "durability", "slo"} {
		if rec, _ := do(t, h, http.MethodGet, "/v1/"+route, nil); rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/%s = %d", route, rec.Code)
		}
		if rec, _ := do(t, h, http.MethodGet, "/api/"+route, nil); rec.Code != http.StatusNotFound {
			t.Fatalf("GET /api/%s = %d, want 404", route, rec.Code)
		}
	}
	do(t, h, http.MethodPost, "/v1/nope", nil)
	rec, _ := do(t, h, http.MethodGet, "/v1/metrics", nil)
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "mtshare_server_http_seconds_count{") &&
			(strings.Contains(line, "api") || strings.Contains(line, "nope")) {
			t.Fatalf("an unknown path minted a latency series: %s", line)
		}
	}
}

func TestServerErrorEnvelope(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()

	assertEnvelope := func(rec *httptest.ResponseRecorder, status int, code string) {
		t.Helper()
		if rec.Code != status {
			t.Fatalf("status = %d, want %d: %s", rec.Code, status, rec.Body)
		}
		var env struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("not an envelope: %s", rec.Body)
		}
		if env.Code != code || env.Error == "" {
			t.Fatalf("envelope = %+v, want code %q", env, code)
		}
	}

	rec, _ := do(t, h, http.MethodGet, "/v1/requests?id=abc", nil)
	assertEnvelope(rec, http.StatusBadRequest, "invalid_request")

	rec, _ = do(t, h, http.MethodGet, "/v1/requests?id=999", nil)
	assertEnvelope(rec, http.StatusNotFound, "not_found")

	rec, _ = do(t, h, http.MethodDelete, "/v1/taxis", nil)
	assertEnvelope(rec, http.StatusMethodNotAllowed, "method_not_allowed")
	if allow := rec.Header().Get("Allow"); !strings.Contains(allow, http.MethodGet) || !strings.Contains(allow, http.MethodPost) {
		t.Fatalf("Allow header = %q", allow)
	}

	// Explicit sub-minimum rho is rejected rather than silently patched.
	rec, _ = do(t, h, http.MethodPost, "/v1/requests", map[string]interface{}{
		"pickup": cityPoint(s, 0.4, 0.4), "dropoff": cityPoint(s, 0.8, 0.8), "rho": 0.5,
	})
	assertEnvelope(rec, http.StatusBadRequest, "invalid_request")

	// Shutdown turns mutating routes into 503 envelopes.
	s.Stop()
	rec, _ = do(t, h, http.MethodPost, "/v1/requests", map[string]interface{}{
		"pickup": cityPoint(s, 0.4, 0.4), "dropoff": cityPoint(s, 0.8, 0.8),
	})
	assertEnvelope(rec, http.StatusServiceUnavailable, "shutdown")
	rec, _ = do(t, h, http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("read-only route after Stop = %d", rec.Code)
	}
}

func TestServerMetricsScrape(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()

	// Serve one request so the dispatch pipeline has observations.
	rec, out := do(t, h, http.MethodPost, "/v1/requests", map[string]interface{}{
		"pickup":  cityPoint(s, 0.45, 0.45),
		"dropoff": cityPoint(s, 0.9, 0.9),
		"rho":     1.5,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/requests = %d: %s", rec.Code, rec.Body)
	}
	var served bool
	if err := json.Unmarshal(out["served"], &served); err != nil || !served {
		t.Fatalf("request not served: %s", rec.Body)
	}

	rec, _ = do(t, h, http.MethodGet, "/v1/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE mtshare_match_dispatch_seconds histogram",
		"mtshare_match_dispatch_seconds_bucket{le=\"+Inf\"} 1",
		"mtshare_match_dispatches_total 1",
		"mtshare_match_candidate_search_seconds_bucket",
		"mtshare_match_scheduling_seconds_bucket",
		"mtshare_roadnet_cache_hits_total",
		"mtshare_roadnet_cold_queries_total",
		"mtshare_index_updates_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, body)
		}
	}

	rec, _ = do(t, h, http.MethodPost, "/v1/metrics", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/metrics = %d", rec.Code)
	}
}

// TestServerLockWaitPerRoute pins where mtshare_server_lock_wait_seconds is
// taken: once per dispatch, per manual tick and per status read, each under
// its own route label, and nowhere else.
func TestServerLockWaitPerRoute(t *testing.T) {
	s, err := New(Config{CityRows: 14, CityCols: 14, InitialTaxis: 10, Capacity: 3, Seed: 1, ManualClock: true})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	ride := map[string]interface{}{"pickup": cityPoint(s, 0.45, 0.45), "dropoff": cityPoint(s, 0.9, 0.9), "rho": 1.5}
	for _, c := range []struct {
		method, path string
		body         interface{}
	}{
		{http.MethodPost, "/v1/requests", ride},
		{http.MethodPost, "/v1/requests", ride},
		{http.MethodPost, "/v1/advance", map[string]float64{"d_seconds": 1}},
		{http.MethodGet, "/v1/requests?id=1", nil},
		{http.MethodGet, "/v1/requests?id=2", nil},
		{http.MethodGet, "/v1/requests?id=2", nil},
		{http.MethodGet, "/v1/stats", nil},
		{http.MethodGet, "/v1/queue", nil},
	} {
		if rec, _ := do(t, h, c.method, c.path, c.body); rec.Code != http.StatusOK {
			t.Fatalf("%s %s = %d: %s", c.method, c.path, rec.Code, rec.Body)
		}
	}
	rec, _ := do(t, h, http.MethodGet, "/v1/metrics", nil)
	for _, want := range []string{
		`mtshare_server_lock_wait_seconds_count{route="requests"} 2`,
		`mtshare_server_lock_wait_seconds_count{route="advance"} 1`,
		`mtshare_server_lock_wait_seconds_count{route="status"} 3`,
	} {
		if !strings.Contains(rec.Body.String(), want+"\n") {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestServerConcurrentTraffic hammers the API from many goroutines while
// the simulation clock advances, so the race detector can see handler,
// dispatch, and metrics paths interleave.
func TestServerConcurrentTraffic(t *testing.T) {
	s, err := New(Config{CityRows: 12, CityCols: 12, InitialTaxis: 12, Capacity: 3, Speedup: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	const workers = 8
	const perWorker = 12
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Background: drive the simulated clock like the Start loop would.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.advance(2)
			}
		}
	}()

	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				f := 0.2 + 0.05*float64((w+i)%10)
				var buf bytes.Buffer
				_ = json.NewEncoder(&buf).Encode(map[string]interface{}{
					"pickup":  cityPoint(s, f, f),
					"dropoff": cityPoint(s, 1-f, 1-f),
					"rho":     1.6,
				})
				req := httptest.NewRequest(http.MethodPost, "/v1/requests", &buf)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
					errc <- fmt.Errorf("POST /v1/requests = %d: %s", rec.Code, rec.Body)
					return
				}
				for _, path := range []string{"/v1/stats", "/v1/metrics", "/v1/taxis"} {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
					if rec.Code != http.StatusOK {
						errc <- fmt.Errorf("GET %s = %d", path, rec.Code)
						return
					}
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestServerStopMidFlight hammers mutating endpoints while Stop fires
// from another goroutine. In-flight requests must either complete
// normally or be refused with the 503 shutdown envelope — never panic
// or mutate the engine after Stop returned — and every mutating request
// issued after Stop must see the 503.
func TestServerStopMidFlight(t *testing.T) {
	s, err := New(Config{CityRows: 12, CityCols: 12, InitialTaxis: 10, Capacity: 3, Speedup: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	stopMidFlightHammer(t, s)
}

func stopMidFlightHammer(t *testing.T, s *Server) {
	t.Helper()
	h := s.Handler()

	const workers = 8
	const perWorker = 40
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	started := make(chan struct{})
	var startOnce sync.Once

	post := func(path string, body interface{}) (*httptest.ResponseRecorder, error) {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return nil, err
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, &buf))
		return rec, nil
	}
	checkShutdownEnvelope := func(rec *httptest.ResponseRecorder, path string) error {
		var env struct {
			Code string `json:"code"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			return fmt.Errorf("POST %s 503 body not JSON: %s", path, rec.Body)
		}
		if env.Code != "shutdown" {
			return fmt.Errorf("POST %s 503 code %q, want shutdown", path, env.Code)
		}
		return nil
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				startOnce.Do(func() { close(started) })
				f := 0.15 + 0.05*float64((w+i)%12)
				var path string
				var body interface{}
				switch i % 3 {
				case 0:
					path = "/v1/requests"
					body = map[string]interface{}{
						"pickup": cityPoint(s, f, f), "dropoff": cityPoint(s, 1-f, 1-f), "rho": 1.6,
					}
				case 1:
					path = "/v1/taxis"
					body = map[string]interface{}{"at": cityPoint(s, f, 1-f), "capacity": 3}
				default:
					path = "/v1/hails"
					body = map[string]interface{}{
						"taxi_id": int64(1 + (w+i)%10),
						"pickup":  cityPoint(s, 1-f, f), "dropoff": cityPoint(s, f, 1-f), "rho": 1.5,
					}
				}
				rec, err := post(path, body)
				if err != nil {
					errc <- err
					return
				}
				switch rec.Code {
				case http.StatusOK, http.StatusCreated, http.StatusBadRequest, http.StatusNotFound,
					http.StatusTooManyRequests:
					// Normal outcomes while the server is live (429 is
					// queue-full backpressure on /v1/requests).
				case http.StatusServiceUnavailable:
					if err := checkShutdownEnvelope(rec, path); err != nil {
						errc <- err
						return
					}
				default:
					errc <- fmt.Errorf("POST %s = %d: %s", path, rec.Code, rec.Body)
					return
				}
			}
			errc <- nil
		}(w)
	}

	// Stop midway through the barrage, concurrently with the workers.
	stopDone := make(chan struct{})
	go func() {
		<-started
		s.Stop()
		close(stopDone)
	}()

	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
	<-stopDone

	// After Stop has returned, every mutating endpoint must refuse.
	after := []struct {
		path string
		body interface{}
	}{
		{"/v1/requests", map[string]interface{}{
			"pickup": cityPoint(s, 0.2, 0.2), "dropoff": cityPoint(s, 0.8, 0.8), "rho": 1.6}},
		{"/v1/taxis", map[string]interface{}{"at": cityPoint(s, 0.5, 0.5), "capacity": 3}},
		{"/v1/hails", map[string]interface{}{
			"taxi_id": int64(1), "pickup": cityPoint(s, 0.3, 0.3), "dropoff": cityPoint(s, 0.7, 0.7), "rho": 1.5}},
	}
	for _, tc := range after {
		rec, err := post(tc.path, tc.body)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("POST %s after Stop = %d: %s", tc.path, rec.Code, rec.Body)
		}
		if err := checkShutdownEnvelope(rec, tc.path); err != nil {
			t.Fatal(err)
		}
	}
	// Read-only endpoints stay available after shutdown.
	for _, path := range []string{"/v1/stats", "/v1/metrics", "/v1/taxis"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s after Stop = %d", path, rec.Code)
		}
	}
	// Stop is idempotent.
	s.Stop()
}

// TestServerRefusesIncoherentPolicy: a policy the facade would reject
// must not start a server either, or its WAL header would record a queue
// knob that no queue ever runs.
func TestServerRefusesIncoherentPolicy(t *testing.T) {
	for name, pol := range map[string]replay.Policy{
		"negative queue depth":    {QueueDepth: -1},
		"negative retry interval": {QueueDepth: 4, RetryEveryTicks: -1},
		"retry without queue":     {RetryEveryTicks: 1},
	} {
		t.Run(name, func(t *testing.T) {
			s, err := New(Config{CityRows: 6, CityCols: 6, Seed: 1, ManualClock: true, Policy: pol})
			if err == nil {
				s.Stop()
				t.Fatalf("New accepted %+v", pol)
			}
		})
	}
}

// TestServerQueueLifecycle drives a request through the HTTP pending
// queue: parked with "queued": true when no taxi can serve it, visible
// in /v1/queue and the metrics gauges, then served by a movement tick's
// batch re-dispatch after a taxi registers.
func TestServerQueueLifecycle(t *testing.T) {
	s, err := New(Config{CityRows: 14, CityCols: 14, InitialTaxis: 0, Capacity: 3,
		Speedup: 50, Seed: 1, Policy: replay.Policy{QueueDepth: 4, RetryEveryTicks: 1}})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	// With the queue disabled, /v1/queue must still answer.
	plain := newTestServer(t)
	rec, out := do(t, plain.Handler(), http.MethodGet, "/v1/queue", nil)
	if rec.Code != http.StatusOK || string(out["enabled"]) != "false" {
		t.Fatalf("queue-less server: %d %s", rec.Code, rec.Body)
	}

	// No fleet: the request parks.
	rec, out = do(t, h, http.MethodPost, "/v1/requests", map[string]interface{}{
		"pickup":  cityPoint(s, 0.3, 0.3),
		"dropoff": cityPoint(s, 0.7, 0.7),
		"rho":     1.8,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/requests = %d: %s", rec.Code, rec.Body)
	}
	if string(out["served"]) != "false" || string(out["queued"]) != "true" {
		t.Fatalf("unserved request not queued: %s", rec.Body)
	}
	var reqID int64
	if err := json.Unmarshal(out["id"], &reqID); err != nil {
		t.Fatal(err)
	}

	rec, out = do(t, h, http.MethodGet, "/v1/queue", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/queue = %d", rec.Code)
	}
	if string(out["enabled"]) != "true" || string(out["depth"]) != "1" ||
		string(out["capacity"]) != "4" || string(out["enqueued"]) != "1" {
		t.Fatalf("queue state: %s", rec.Body)
	}

	// GET of the parked request reports queued, and the depth gauge is
	// on the metrics surface.
	rec, out = do(t, h, http.MethodGet, fmt.Sprintf("/v1/requests?id=%d", reqID), nil)
	if rec.Code != http.StatusOK || string(out["queued"]) != "true" {
		t.Fatalf("GET parked request: %d %s", rec.Code, rec.Body)
	}
	rec, _ = do(t, h, http.MethodGet, "/v1/metrics", nil)
	for _, want := range []string{"mtshare_match_queue_depth 1", "mtshare_match_queue_enqueued_total 1"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, rec.Body)
		}
	}

	// A taxi registers at the pickup; the next movement tick's batch
	// re-dispatch serves the parked request.
	rec, _ = do(t, h, http.MethodPost, "/v1/taxis", cityPoint(s, 0.3, 0.3))
	if rec.Code != http.StatusCreated {
		t.Fatalf("POST /v1/taxis = %d", rec.Code)
	}
	s.advance(0.1)
	rec, out = do(t, h, http.MethodGet, fmt.Sprintf("/v1/requests?id=%d", reqID), nil)
	if rec.Code != http.StatusOK || string(out["served"]) != "true" || string(out["queued"]) == "true" {
		t.Fatalf("request after retry: %d %s", rec.Code, rec.Body)
	}
	rec, out = do(t, h, http.MethodGet, "/v1/queue", nil)
	if string(out["depth"]) != "0" || string(out["served"]) != "1" {
		t.Fatalf("queue after retry: %s", rec.Body)
	}
}

// TestServerQueueBackpressure pins the 429 path: once the pending queue
// is full, a further POST /v1/requests is true backpressure and answers
// 429 with the uniform error envelope (code queue_full) and a
// Retry-After hint derived from the retry cadence; the request that
// filled the queue keeps its 200 "queued" response.
func TestServerQueueBackpressure(t *testing.T) {
	s, err := New(Config{CityRows: 14, CityCols: 14, InitialTaxis: 0, Capacity: 3,
		Speedup: 50, Seed: 1, Policy: replay.Policy{QueueDepth: 1, RetryEveryTicks: 10}})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	body := map[string]interface{}{
		"pickup":  cityPoint(s, 0.3, 0.3),
		"dropoff": cityPoint(s, 0.7, 0.7),
		"rho":     1.8,
	}

	// No fleet: the first request parks and fills the depth-1 queue.
	rec, out := do(t, h, http.MethodPost, "/v1/requests", body)
	if rec.Code != http.StatusOK || string(out["queued"]) != "true" {
		t.Fatalf("first request: %d %s", rec.Code, rec.Body)
	}

	// The second is refused for room, not deadline: 429 + envelope.
	rec, out = do(t, h, http.MethodPost, "/v1/requests", body)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("POST with full queue = %d, want 429: %s", rec.Code, rec.Body)
	}
	if string(out["code"]) != `"queue_full"` || len(out["error"]) == 0 {
		t.Fatalf("backpressure envelope: %s", rec.Body)
	}
	// 10 retry ticks x 200ms movement period, rounded up to whole seconds.
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", got)
	}

	// The refusal is accounted as a rejection, not an expiry.
	rec, out = do(t, h, http.MethodGet, "/v1/queue", nil)
	if rec.Code != http.StatusOK || string(out["rejected"]) != "1" ||
		string(out["expired"]) != "0" || string(out["depth"]) != "1" {
		t.Fatalf("queue stats after backpressure: %s", rec.Body)
	}
}

// TestServerQueueExpiry pins the other refusal surface: a parked request
// whose pickup deadline passes while queued is evicted as expired —
// visible on its status and in the queue counters — and never counted
// as backpressure.
func TestServerQueueExpiry(t *testing.T) {
	s, err := New(Config{CityRows: 14, CityCols: 14, InitialTaxis: 0, Capacity: 3,
		Speedup: 50, Seed: 1, Policy: replay.Policy{QueueDepth: 4, RetryEveryTicks: 1}})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	rec, out := do(t, h, http.MethodPost, "/v1/requests", map[string]interface{}{
		"pickup":  cityPoint(s, 0.3, 0.3),
		"dropoff": cityPoint(s, 0.7, 0.7),
		"rho":     1.1,
	})
	if rec.Code != http.StatusOK || string(out["queued"]) != "true" {
		t.Fatalf("request not parked: %d %s", rec.Code, rec.Body)
	}
	var reqID int64
	if err := json.Unmarshal(out["id"], &reqID); err != nil {
		t.Fatal(err)
	}

	// The first tick moves the clock past every deadline; the second
	// tick's queue maintenance (which runs at the tick's starting clock,
	// before taxis advance) evicts.
	s.advance(3600)
	s.advance(1)
	rec, out = do(t, h, http.MethodGet, fmt.Sprintf("/v1/requests?id=%d", reqID), nil)
	if rec.Code != http.StatusOK || string(out["expired"]) != "true" ||
		string(out["served"]) == "true" || string(out["queued"]) == "true" {
		t.Fatalf("expired request status: %d %s", rec.Code, rec.Body)
	}
	rec, out = do(t, h, http.MethodGet, "/v1/queue", nil)
	if rec.Code != http.StatusOK || string(out["expired"]) != "1" ||
		string(out["rejected"]) != "0" || string(out["depth"]) != "0" {
		t.Fatalf("queue stats after expiry: %s", rec.Body)
	}
}

// TestServerBatchAssignDispatch smoke-tests the -batch-assign knob over
// HTTP: the global solver serves the queue's retry rounds and the
// mtshare_match_batch_assign_* instruments land on the metrics surface.
func TestServerBatchAssignDispatch(t *testing.T) {
	s, err := New(Config{CityRows: 14, CityCols: 14, InitialTaxis: 0, Capacity: 3,
		Speedup: 50, Seed: 1, Policy: replay.Policy{QueueDepth: 8, RetryEveryTicks: 1, BatchAssign: true}})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	// Two requests park (no fleet yet), forming a real retry batch.
	ids := make([]int64, 0, 2)
	for _, f := range []float64{0.30, 0.34} {
		rec, out := do(t, h, http.MethodPost, "/v1/requests", map[string]interface{}{
			"pickup":  cityPoint(s, f, f),
			"dropoff": cityPoint(s, 0.7, 0.7),
			"rho":     1.8,
		})
		if rec.Code != http.StatusOK || string(out["queued"]) != "true" {
			t.Fatalf("request not parked: %d %s", rec.Code, rec.Body)
		}
		var id int64
		if err := json.Unmarshal(out["id"], &id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, f := range []float64{0.30, 0.34} {
		if rec, _ := do(t, h, http.MethodPost, "/v1/taxis", cityPoint(s, f, f)); rec.Code != http.StatusCreated {
			t.Fatalf("POST /v1/taxis = %d", rec.Code)
		}
	}
	s.advance(0.1)
	for _, id := range ids {
		rec, out := do(t, h, http.MethodGet, fmt.Sprintf("/v1/requests?id=%d", id), nil)
		if rec.Code != http.StatusOK || string(out["served"]) != "true" {
			t.Fatalf("request %d after batch-assign retry: %d %s", id, rec.Code, rec.Body)
		}
	}
	rec, _ := do(t, h, http.MethodGet, "/v1/metrics", nil)
	if !strings.Contains(rec.Body.String(), "mtshare_match_batch_assign_rounds_total 1") {
		t.Fatalf("metrics exposition missing batch-assign round:\n%s", rec.Body)
	}
}

// TestServerQueueWaitAtTickStart pins the tick order: the queue's retry
// round runs at the tick's starting clock, before taxis move, so a
// request parked at clock t and matched by the next tick has waited 0 —
// not the tick's length, which is what a round run at the tick's end
// clock reports.
func TestServerQueueWaitAtTickStart(t *testing.T) {
	s, err := New(Config{CityRows: 14, CityCols: 14, InitialTaxis: 0, Capacity: 3,
		Seed: 1, Policy: replay.Policy{QueueDepth: 4, RetryEveryTicks: 1}, ManualClock: true})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	rec, out := do(t, h, http.MethodPost, "/v1/requests", map[string]interface{}{
		"pickup":  cityPoint(s, 0.3, 0.3),
		"dropoff": cityPoint(s, 0.7, 0.7),
		"rho":     1.8,
	})
	if rec.Code != http.StatusOK || string(out["queued"]) != "true" {
		t.Fatalf("request not parked: %d %s", rec.Code, rec.Body)
	}
	if rec, _ := do(t, h, http.MethodPost, "/v1/taxis", cityPoint(s, 0.3, 0.3)); rec.Code != http.StatusCreated {
		t.Fatalf("POST /v1/taxis = %d", rec.Code)
	}
	if rec, _ := do(t, h, http.MethodPost, "/v1/advance", map[string]float64{"d_seconds": 20}); rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/advance = %d: %s", rec.Code, rec.Body)
	}
	if rec, out := do(t, h, http.MethodGet, "/v1/requests?id=1", nil); string(out["served"]) != "true" {
		t.Fatalf("parked request not served by the tick: %s", rec.Body)
	}
	rec, _ = do(t, h, http.MethodGet, "/v1/metrics", nil)
	for _, want := range []string{
		"mtshare_match_queue_wait_seconds_count 1\n",
		"mtshare_match_queue_wait_seconds_sum 0\n",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}
