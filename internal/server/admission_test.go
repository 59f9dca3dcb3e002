package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// postRequests fires one POST /v1/requests and returns the recorder.
// Safe from any goroutine (no testing.T calls).
func postRequests(h http.Handler, body map[string]interface{}) *httptest.ResponseRecorder {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(body)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/requests", &buf))
	return rec
}

// TestAdmissionAcquireBounds pins the budget arithmetic deterministically,
// without HTTP: maxInFlight slots admit, maxWait more wait, the next is
// rejected, and the counters conserve offered == admitted + rejected.
func TestAdmissionAcquireBounds(t *testing.T) {
	a := newAdmission(obs.NewRegistry(), 1, 1)
	if !a.acquire() {
		t.Fatal("first acquire must claim the free slot")
	}

	// Second acquire parks in the wait queue; let it reach the blocking
	// send before probing the reject path.
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		if !a.acquire() {
			t.Error("waiter was rejected despite queue room")
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for a.waiting.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never parked")
		}
		time.Sleep(time.Millisecond)
	}

	// Slot busy, wait queue full: the third offer must shed.
	if a.acquire() {
		t.Fatal("acquire succeeded with slot and wait queue both full")
	}

	a.release() // waiter takes the slot
	<-waiterDone
	a.release()

	offered, admitted, rejected := a.offered.Value(), a.admitted.Value(), a.rejected.Value()
	if offered != 3 || admitted != 2 || rejected != 1 {
		t.Fatalf("counters offered=%d admitted=%d rejected=%d, want 3/2/1", offered, admitted, rejected)
	}
	if offered != admitted+rejected {
		t.Fatalf("conservation broken: %d != %d + %d", offered, admitted, rejected)
	}
	if in, wait := a.inFlight.Value(), a.waitingG.Value(); in != 0 || wait != 0 {
		t.Fatalf("gauges in_flight=%g waiting=%g after drain, want 0/0", in, wait)
	}
}

// TestAdmissionHammer slams a tiny admission budget with concurrent
// mutating requests under the race detector. Every response must be
// 200 or a 429 carrying Retry-After and the overloaded envelope — never
// a 5xx, a hang, or a bare 429 — the read-only surface must keep
// answering mid-hammer, and afterwards the admission counters conserve.
func TestAdmissionHammer(t *testing.T) {
	s, err := New(Config{CityRows: 14, CityCols: 14, InitialTaxis: 10, Capacity: 3,
		Speedup: 50, Seed: 1, MaxInFlight: 2, AdmissionQueue: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	body := map[string]interface{}{
		"pickup":  cityPoint(s, 0.3, 0.3),
		"dropoff": cityPoint(s, 0.7, 0.7),
		"rho":     1.8,
	}

	const workers, perWorker = 16, 8
	type outcome struct {
		code       int
		retryAfter string
		envCode    string
		body       string
	}
	results := make(chan outcome, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rec := postRequests(h, body)
				var env errorJSON
				_ = json.Unmarshal(rec.Body.Bytes(), &env)
				results <- outcome{rec.Code, rec.Header().Get("Retry-After"), env.Code, rec.Body.String()}
			}
		}()
	}
	// The observability surface must stay live while the hammer runs.
	for _, path := range []string{"/v1/stats", "/v1/slo", "/v1/metrics"} {
		if rec, _ := do(t, h, http.MethodGet, path, nil); rec.Code != http.StatusOK {
			t.Fatalf("GET %s mid-hammer = %d", path, rec.Code)
		}
	}
	wg.Wait()
	close(results)

	ok2xx, shed := 0, 0
	for r := range results {
		switch r.code {
		case http.StatusOK:
			ok2xx++
		case http.StatusTooManyRequests:
			shed++
			if r.retryAfter == "" {
				t.Fatalf("429 without Retry-After: %s", r.body)
			}
			if r.envCode != codeOverloaded {
				t.Fatalf("429 with code %q, want %q: %s", r.envCode, codeOverloaded, r.body)
			}
		default:
			t.Fatalf("unexpected status %d under overload: %s", r.code, r.body)
		}
	}

	offered := s.adm.offered.Value()
	admitted := s.adm.admitted.Value()
	rejected := s.adm.rejected.Value()
	if offered != workers*perWorker {
		t.Fatalf("offered %d, want %d", offered, workers*perWorker)
	}
	if offered != admitted+rejected {
		t.Fatalf("conservation broken: offered %d != admitted %d + rejected %d", offered, admitted, rejected)
	}
	if int64(ok2xx) != admitted || int64(shed) != rejected {
		t.Fatalf("HTTP outcomes (%d ok, %d shed) disagree with counters (admitted %d, rejected %d)",
			ok2xx, shed, admitted, rejected)
	}
	if in, wait := s.adm.inFlight.Value(), s.adm.waitingG.Value(); in != 0 || wait != 0 {
		t.Fatalf("gauges in_flight=%g waiting=%g after drain, want 0/0", in, wait)
	}
	t.Logf("hammer: %d admitted, %d shed", ok2xx, shed)
}

// TestAdmissionShedsThroughHTTP forces a deterministic shed through the
// full HTTP stack: with the single slot held and the wait queue
// saturated, a POST must come back 429 + Retry-After + overloaded
// envelope, and releasing the slot restores 200s.
func TestAdmissionShedsThroughHTTP(t *testing.T) {
	s, err := New(Config{CityRows: 14, CityCols: 14, InitialTaxis: 10, Capacity: 3,
		Speedup: 50, Seed: 1, MaxInFlight: 1, AdmissionQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	body := map[string]interface{}{
		"pickup":  cityPoint(s, 0.3, 0.3),
		"dropoff": cityPoint(s, 0.7, 0.7),
		"rho":     1.8,
	}

	// Occupy the slot and fill the wait quota so the next offer must shed.
	s.adm.slots <- struct{}{}
	s.adm.waiting.Add(s.adm.maxWait)

	rec, out := do(t, h, http.MethodPost, "/v1/requests", body)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("POST under saturated admission = %d, want 429: %s", rec.Code, rec.Body)
	}
	if string(out["code"]) != `"overloaded"` || len(out["error"]) == 0 {
		t.Fatalf("shed envelope: %s", rec.Body)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	// GETs bypass the gate even while saturated.
	if rec, _ := do(t, h, http.MethodGet, "/v1/requests?id=1", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("GET through saturated gate = %d, want 404 (not 429)", rec.Code)
	}

	s.adm.waiting.Add(-s.adm.maxWait)
	<-s.adm.slots
	if rec, _ := do(t, h, http.MethodPost, "/v1/requests", body); rec.Code != http.StatusOK {
		t.Fatalf("POST after release = %d, want 200: %s", rec.Code, rec.Body)
	}
}

// TestServerRejectEnvelopes sweeps every reject path the server owns and
// pins the uniform {"error","code"} envelope plus the per-path headers:
// admission 429 (Retry-After), queue-full 429 (Retry-After), WAL-failure
// 503, shutdown 503, 405 (Allow), 404, and 400.
func TestServerRejectEnvelopes(t *testing.T) {
	body := func(s *Server) map[string]interface{} {
		return map[string]interface{}{
			"pickup":  cityPoint(s, 0.3, 0.3),
			"dropoff": cityPoint(s, 0.7, 0.7),
			"rho":     1.8,
		}
	}
	cases := []struct {
		name        string
		build       func(t *testing.T) *Server
		prep        func(t *testing.T, s *Server, h http.Handler)
		method      string
		path        string
		reqBody     func(s *Server) map[string]interface{}
		wantStatus  int
		wantCode    string
		wantHeaders map[string]string
	}{
		{
			name: "admission overloaded",
			build: func(t *testing.T) *Server {
				s, err := New(Config{CityRows: 10, CityCols: 10, InitialTaxis: 4, Capacity: 3,
					Speedup: 50, Seed: 1, MaxInFlight: 1, AdmissionQueue: 1})
				if err != nil {
					t.Fatal(err)
				}
				return s
			},
			prep: func(t *testing.T, s *Server, h http.Handler) {
				s.adm.slots <- struct{}{}
				s.adm.waiting.Add(s.adm.maxWait)
			},
			method: http.MethodPost, path: "/v1/requests", reqBody: body,
			wantStatus:  http.StatusTooManyRequests,
			wantCode:    codeOverloaded,
			wantHeaders: map[string]string{"Retry-After": "1"},
		},
		{
			name: "queue full",
			build: func(t *testing.T) *Server {
				s, err := New(Config{CityRows: 10, CityCols: 10, InitialTaxis: 0, Capacity: 3,
					Speedup: 50, Seed: 1, QueueDepth: 1, RetryEveryTicks: 10})
				if err != nil {
					t.Fatal(err)
				}
				return s
			},
			prep: func(t *testing.T, s *Server, h http.Handler) {
				// No fleet: the first request parks and fills the queue.
				if rec := postRequests(h, body(s)); rec.Code != http.StatusOK {
					t.Fatalf("queue filler: %d %s", rec.Code, rec.Body)
				}
			},
			method: http.MethodPost, path: "/v1/requests", reqBody: body,
			wantStatus:  http.StatusTooManyRequests,
			wantCode:    codeQueueFull,
			wantHeaders: map[string]string{"Retry-After": "2"},
		},
		{
			name: "wal failed",
			build: func(t *testing.T) *Server {
				s, err := New(Config{CityRows: 10, CityCols: 10, InitialTaxis: 4, Capacity: 3,
					Speedup: 50, Seed: 1, ManualClock: true,
					Durability: wal.Options{Dir: t.TempDir(), SyncEvery: 1, SnapshotEveryTicks: 3}})
				if err != nil {
					t.Fatal(err)
				}
				return s
			},
			prep: func(t *testing.T, s *Server, h http.Handler) {
				// Kill the WAL out from under the server; the next append
				// latches the sticky error and answers with it.
				s.mu.Lock()
				_ = s.rt.WAL().Close()
				s.mu.Unlock()
			},
			method: http.MethodPost, path: "/v1/requests", reqBody: body,
			wantStatus: http.StatusServiceUnavailable,
			wantCode:   codeWALFailed,
		},
		{
			name:  "shutdown",
			build: newTestServer,
			prep: func(t *testing.T, s *Server, h http.Handler) {
				s.Stop()
			},
			method: http.MethodPost, path: "/v1/requests", reqBody: body,
			wantStatus: http.StatusServiceUnavailable,
			wantCode:   codeShutdown,
		},
		{
			name:   "method not allowed",
			build:  newTestServer,
			method: http.MethodDelete, path: "/v1/stats",
			wantStatus:  http.StatusMethodNotAllowed,
			wantCode:    codeMethodNotAllowed,
			wantHeaders: map[string]string{"Allow": "GET"},
		},
		{
			name:   "not found",
			build:  newTestServer,
			method: http.MethodGet, path: "/v1/requests?id=999999",
			wantStatus: http.StatusNotFound,
			wantCode:   codeNotFound,
		},
		{
			name:   "invalid request",
			build:  newTestServer,
			method: http.MethodPost, path: "/v1/requests",
			reqBody: func(s *Server) map[string]interface{} {
				return map[string]interface{}{"pickup": cityPoint(s, 0.3, 0.3),
					"dropoff": cityPoint(s, 0.7, 0.7), "rho": 0.5}
			},
			wantStatus: http.StatusBadRequest,
			wantCode:   codeInvalidRequest,
		},
		{
			name:   "removed shards route",
			build:  newTestServer,
			method: http.MethodGet, path: "/v1/shards",
			wantStatus:  http.StatusNotFound,
			wantCode:    codeNotFound,
			wantHeaders: map[string]string{"Content-Type": "application/json"},
		},
		{
			name:   "removed api alias",
			build:  newTestServer,
			method: http.MethodGet, path: "/api/taxis",
			wantStatus:  http.StatusNotFound,
			wantCode:    codeNotFound,
			wantHeaders: map[string]string{"Content-Type": "application/json"},
		},
		{
			name:   "unknown route",
			build:  newTestServer,
			method: http.MethodPost, path: "/v1/nope", reqBody: body,
			wantStatus:  http.StatusNotFound,
			wantCode:    codeNotFound,
			wantHeaders: map[string]string{"Content-Type": "application/json"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build(t)
			h := s.Handler()
			if tc.prep != nil {
				tc.prep(t, s, h)
			}
			var reqBody interface{}
			if tc.reqBody != nil {
				reqBody = tc.reqBody(s)
			}
			rec, out := do(t, h, tc.method, tc.path, reqBody)
			if rec.Code != tc.wantStatus {
				t.Fatalf("%s %s = %d, want %d: %s", tc.method, tc.path, rec.Code, tc.wantStatus, rec.Body)
			}
			if got := string(out["code"]); got != `"`+tc.wantCode+`"` {
				t.Fatalf("envelope code %s, want %q: %s", got, tc.wantCode, rec.Body)
			}
			if len(out["error"]) <= 2 {
				t.Fatalf("envelope has no error message: %s", rec.Body)
			}
			for k, want := range tc.wantHeaders {
				if got := rec.Header().Get(k); got != want {
					t.Fatalf("header %s = %q, want %q", k, got, want)
				}
			}
		})
	}
}

// TestServerSLOEndpoint drives a few requests through the instrumented
// routes and checks GET /v1/slo reports per-route quantiles in
// non-decreasing order plus a conserving admission snapshot, and that
// /v1/stats now carries the city bounds the load generator samples from.
func TestServerSLOEndpoint(t *testing.T) {
	s, err := New(Config{CityRows: 14, CityCols: 14, InitialTaxis: 10, Capacity: 3,
		Speedup: 50, Seed: 1, MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	body := map[string]interface{}{
		"pickup":  cityPoint(s, 0.3, 0.3),
		"dropoff": cityPoint(s, 0.7, 0.7),
		"rho":     1.8,
	}
	const n = 5
	for i := 0; i < n; i++ {
		if rec := postRequests(h, body); rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, rec.Code, rec.Body)
		}
	}

	rec, _ := do(t, h, http.MethodGet, "/v1/slo", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/slo = %d: %s", rec.Code, rec.Body)
	}
	var slo struct {
		Routes    map[string]sloRouteJSON `json:"routes"`
		Admission sloAdmissionJSON        `json:"admission"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &slo); err != nil {
		t.Fatal(err)
	}
	rt, ok := slo.Routes["requests"]
	if !ok {
		t.Fatalf("no latency summary for route \"requests\": %s", rec.Body)
	}
	if rt.Count != n {
		t.Fatalf("route count %d, want %d", rt.Count, n)
	}
	if !(rt.P50Seconds <= rt.P95Seconds && rt.P95Seconds <= rt.P99Seconds) {
		t.Fatalf("quantiles not monotone: p50 %g p95 %g p99 %g", rt.P50Seconds, rt.P95Seconds, rt.P99Seconds)
	}
	if rt.P99Seconds <= 0 {
		t.Fatalf("p99 %g, want positive", rt.P99Seconds)
	}
	if !slo.Admission.Enabled || slo.Admission.MaxInFlight != 4 {
		t.Fatalf("admission snapshot: %+v", slo.Admission)
	}
	if slo.Admission.Offered != slo.Admission.Admitted+slo.Admission.Rejected {
		t.Fatalf("admission counters do not conserve: %+v", slo.Admission)
	}

	// Bounds on /v1/stats (the load generator's sampling box).
	rec, out := do(t, h, http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d", rec.Code)
	}
	var bounds struct {
		Min pointJSON `json:"min"`
		Max pointJSON `json:"max"`
	}
	if err := json.Unmarshal(out["bounds"], &bounds); err != nil {
		t.Fatalf("stats bounds: %v (%s)", err, rec.Body)
	}
	if !(bounds.Min.Lat < bounds.Max.Lat && bounds.Min.Lng < bounds.Max.Lng) {
		t.Fatalf("degenerate bounds: %+v", bounds)
	}
}
