// Package server exposes the mT-Share matching engine as a real-time
// HTTP dispatch service: taxis register and move along planned routes on
// an accelerated clock, ride requests are matched on arrival, and the
// payment model settles a shared ride's fares once its taxi empties. It
// is the "mobile-cloud" deployment shape the paper's Fig. 2 sketches, on
// the synthetic city.
//
// The API is versioned under /v1/. Errors — unknown routes included — are
// a uniform JSON envelope {"error": "...", "code": "..."}; /v1/metrics
// serves the engine's instrument registry in Prometheus text format.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/roadnet"
	"repro/internal/service"
	"repro/internal/wal"
)

// Config sizes the service's synthetic world.
type Config struct {
	CityRows, CityCols int
	InitialTaxis       int
	Capacity           int
	// Speedup is how much faster than wall clock the simulated taxis
	// drive. 0 defaults to 20x.
	Speedup float64
	Seed    int64

	// Policy is the dispatch policy, handed to the runtime unchanged. With
	// a queue, a ride request that finds no feasible taxi parks for
	// batched re-dispatch on later movement ticks (the response reports
	// "queued": true) and /v1/queue reports the queue's live state; the
	// mtshare_match_batch_assign_* instruments on /v1/metrics report
	// BatchAssign's rounds. An incoherent policy fails New.
	replay.Policy
	// MaxInFlight bounds how many mutating requests (taxi registration,
	// ride requests, street hails) may be executing concurrently; up to
	// AdmissionQueue more may wait for a slot, and beyond that the server
	// sheds with 429 + Retry-After (code "overloaded") before the request
	// touches the engine. This is admission control — distinct from the
	// pending-queue's "queue_full" 429, which is a dispatch outcome.
	// Zero disables the gate. Read-only routes are never gated.
	MaxInFlight int
	// AdmissionQueue bounds the accept queue in front of MaxInFlight;
	// 0 defaults to MaxInFlight.
	AdmissionQueue int

	// Metrics receives the engine's instruments; nil allocates a private
	// registry served at /v1/metrics either way. Queue, router and WAL
	// counts are kept only here (/v1/queue and /v1/durability read them
	// back), so two servers sharing one registry each report the sum, as
	// they do for dispatch counters.
	Metrics *obs.Registry
	// TraceSampleEvery samples one in N dispatches with a span tree
	// delivered to TraceHandler; 0 disables tracing.
	TraceSampleEvery int
	TraceHandler     func(*obs.Span)

	// Durability, when enabled, makes the server crash-safe: every
	// state-changing API event (taxi registration, dispatch, street hail,
	// movement tick) is appended to a fsynced WAL in wal.Options.Dir, a
	// full state snapshot is written every SnapshotEveryTicks movement
	// ticks, and New over a non-empty directory recovers the previous
	// process's exact state — latest snapshot plus verified tail
	// re-execution. GET /v1/durability reports the log's statistics.
	// Dispatches run under context.Background() when durability is on:
	// a recorded outcome must not depend on a client disconnect.
	Durability wal.Options

	// ManualClock disables the wall-clock movement ticker; simulated time
	// only advances via POST /v1/advance. The crash-recovery harness uses
	// it to drive two servers through identical tick sequences.
	ManualClock bool

	// CrashAtEvent, when positive, fsyncs the WAL and SIGKILLs the
	// process immediately after appending the event with that index — a
	// deterministic crash point for recovery tests. Ignored without
	// Durability.
	CrashAtEvent int64
}

// tickInterval is the movement loop's wall-clock period; each tick
// advances simulated time by tickInterval × Config.Speedup. Retry-After
// hints on backpressured requests derive from it.
const tickInterval = 200 * time.Millisecond

// Server is the dispatch service: HTTP and admission over the dispatch
// runtime, every runtime call serialised under mu.
type Server struct {
	cfg Config
	rt  *service.Runtime
	rng *rand.Rand // guarded by mu; seeded from Config.Seed

	// adm is the admission gate (nil when Config.MaxInFlight is 0);
	// httpHists holds the per-route latency histograms, populated once in
	// Handler and read lock-free by handleSLO.
	adm       *admission
	httpHists map[string]*obs.Histogram
	// lockWait times how long the three hot handlers wait to take mu:
	// mtshare_server_lock_wait_seconds{route="requests"|"advance"|"status"}
	// (status is GET /v1/requests?id=). It is the inside measurement of
	// what a client sees as queueing behind other handlers and ticks.
	lockWait struct{ requests, advance, status *obs.Histogram }

	// mu guards rt. Handlers decide the 503 (rt.Closed) and run their
	// mutation inside one mu critical section, so once Stop (which shuts
	// rt down under mu) returns, no new mutation can start.
	mu sync.Mutex

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds the world and engine.
func New(cfg Config) (*Server, error) {
	if cfg.Speedup <= 0 {
		cfg.Speedup = 20
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 3
	}
	mcfg := match.DefaultConfig()
	mcfg.Metrics = cfg.Metrics
	if cfg.TraceSampleEvery > 0 {
		mcfg.Tracer = obs.NewTracer(cfg.TraceSampleEvery, cfg.TraceHandler)
	}
	rt, err := service.New(service.Config{
		Rows:                cfg.CityRows,
		Cols:                cfg.CityCols,
		Seed:                cfg.Seed,
		HistoryTripsPerHour: 400,
		Match:               mcfg,
		Policy:              cfg.Policy,
		CrashAtEvent:        cfg.CrashAtEvent,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:  cfg,
		rt:   rt,
		rng:  rand.New(rand.NewSource(cfg.Seed + 2)),
		stop: make(chan struct{}),
	}
	s.httpHists = make(map[string]*obs.Histogram)
	reg := rt.Engine.Metrics()
	lockWait := func(route string) *obs.Histogram {
		return reg.Labeled("route="+strconv.Quote(route)).HistogramWith(
			"mtshare_server_lock_wait_seconds", obs.DefLatencyBuckets())
	}
	s.lockWait.requests, s.lockWait.advance, s.lockWait.status = lockWait("requests"), lockWait("advance"), lockWait("status")
	if cfg.MaxInFlight > 0 {
		maxWait := cfg.AdmissionQueue
		if maxWait <= 0 {
			maxWait = cfg.MaxInFlight
		}
		s.adm = newAdmission(reg, cfg.MaxInFlight, maxWait)
	}
	if cfg.Durability.Enabled() {
		// The WAL pins the world it records — the effective κ and the
		// engine's speed — so reopening with a different configuration or
		// road graph is refused, not replayed into a diverging state.
		world := replay.World{
			Seed:       cfg.Seed,
			Rows:       cfg.CityRows,
			Cols:       cfg.CityCols,
			Partitions: rt.Kappa,
			SpeedKmh:   rt.Engine.Config().SpeedMps * 3.6,
		}
		if err := rt.OpenWAL(cfg.Durability, world); err != nil {
			return nil, fmt.Errorf("server: durability: %w", err)
		}
	}
	// Initial placement uses the seeded rng, and — with durability on —
	// lands in the WAL as ordinary AddTaxi events; a recovering process
	// replays those instead of re-seeding. Recovery can restore fewer
	// than InitialTaxis when the crash tore the tail of the seeding
	// burst itself, so the fleet is topped up (appending fresh AddTaxi
	// events) rather than silently running undersized forever.
	for len(rt.Taxis()) < cfg.InitialTaxis && rt.WALErr() == nil {
		rt.AddTaxi(rt.Graph.Point(roadnet.VertexID(s.rng.Intn(rt.Graph.NumVertices()))), cfg.Capacity)
	}
	if err := rt.WALErr(); err != nil {
		return nil, fmt.Errorf("server: durability: seeding: %w", err)
	}
	return s, nil
}

// Start launches the movement loop. With ManualClock set there is no
// loop: time advances only via POST /v1/advance.
func (s *Server) Start() {
	if s.cfg.ManualClock {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(tickInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.advance(tickInterval.Seconds() * s.cfg.Speedup)
			}
		}
	}()
}

// Stop terminates the movement loop and marks the service shut down:
// subsequent mutating requests fail with a 503 "shutdown" envelope.
// The flag is set under mu, so any handler already inside its critical
// section finishes first and every later handler observes the shutdown
// before touching the engine. Draining the engine inside the same
// critical section closes its commit path, so no dispatch can install a
// plan after Stop returns. Stop is idempotent.
func (s *Server) Stop() {
	s.mu.Lock()
	s.rt.Shutdown()
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	s.mu.Lock()
	// A failed seal leaves an unsealed log, which recovers like a crash.
	_ = s.rt.Seal()
	s.mu.Unlock()
}

// lockTimed takes s.mu and records how long the caller waited for it.
func (s *Server) lockTimed(wait *obs.Histogram) {
	t0 := time.Now()
	s.mu.Lock()
	wait.ObserveSince(t0)
}

// advance moves the world forward by dt simulated seconds. A stopped
// server (Stop, or a latched WAL failure) no longer moves: ticking on
// would keep mutating state that can never be persisted or recovered.
func (s *Server) advance(dt float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rt.Closed() {
		return
	}
	s.rt.Tick(time.Duration(dt*float64(time.Second)), false)
}

// Handler returns the HTTP API. Routes live under /v1/; any other path
// answers 404 in the JSON error envelope.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// Admission-gated routes are the ones whose POST bodies reach the
	// dispatch engine; everything else stays observable under overload.
	routes := map[string]http.HandlerFunc{
		"/taxis":      s.admit(s.handleTaxis),
		"/requests":   s.admit(s.handleRequests),
		"/hails":      s.admit(s.handleHails),
		"/stats":      s.handleStats,
		"/queue":      s.handleQueue,
		"/metrics":    s.handleMetrics,
		"/durability": s.handleDurability,
		"/advance":    s.handleAdvance,
		"/slo":        s.handleSLO,
	}
	for path, h := range routes {
		mux.HandleFunc("/v1"+path, s.instrument(strings.TrimPrefix(path, "/"), h))
	}
	// The catch-all is neither gated nor instrumented, so a bogus path mints
	// no per-route latency series.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, codeNotFound, fmt.Sprintf("no route %s", r.URL.Path))
	})
	return mux
}

type pointJSON struct {
	Lat float64 `json:"lat"`
	Lng float64 `json:"lng"`
}

type taxiJSON struct {
	ID       int64     `json:"id"`
	Position pointJSON `json:"position"`
	Seats    int       `json:"occupied_seats"`
	Capacity int       `json:"capacity"`
	Empty    bool      `json:"empty"`
}

// Machine-readable error codes carried by the JSON error envelope.
const (
	codeInvalidRequest   = "invalid_request"
	codeNotFound         = "not_found"
	codeMethodNotAllowed = "method_not_allowed"
	codeShutdown         = "shutdown"
	codeWALFailed        = "wal_failed"
	codeQueueFull        = "queue_full"
	codeOverloaded       = "overloaded"
)

// errorJSON is the uniform error envelope of every non-2xx response.
type errorJSON struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorJSON{Error: msg, Code: code})
}

// methodNotAllowed answers 405 with the Allow header listing the
// methods the route accepts.
func methodNotAllowed(w http.ResponseWriter, r *http.Request, allow ...string) {
	w.Header().Set("Allow", strings.Join(allow, ", "))
	writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed,
		fmt.Sprintf("method %s not allowed", r.Method))
}

// rejectIfStoppedLocked answers mutating requests arriving after Stop —
// or after a WAL failure stopped the service, in which case the error
// envelope names the durability failure rather than a plain shutdown.
// The caller must hold mu: the shutdown decision is only race-free when
// it shares the critical section with the mutation it guards.
func (s *Server) rejectIfStoppedLocked(w http.ResponseWriter) bool {
	if !s.rt.Closed() {
		return false
	}
	if err := s.rt.WALErr(); err != nil {
		writeWALFailed(w, err)
		return true
	}
	writeError(w, http.StatusServiceUnavailable, codeShutdown, "server is shut down")
	return true
}

// writeWALFailed answers a mutating request that cannot be acknowledged
// because the write-ahead log is dead: any in-memory state change was
// never persisted and would not survive a restart.
func writeWALFailed(w http.ResponseWriter, err error) {
	writeError(w, http.StatusServiceUnavailable, codeWALFailed,
		fmt.Sprintf("durability failure, state not persisted: %v", err))
}

// handleMetrics serves the instrument registry in Prometheus text
// exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, r, http.MethodGet)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.rt.Engine.Metrics().WritePrometheus(w)
}

func (s *Server) handleTaxis(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.mu.Lock()
		taxis := s.rt.Taxis()
		out := make([]taxiJSON, 0, len(taxis))
		for _, t := range taxis {
			p := t.Point()
			out = append(out, taxiJSON{
				ID: t.ID, Position: pointJSON{p.Lat, p.Lng},
				Seats: t.OccupiedSeats(), Capacity: t.Capacity, Empty: t.Empty(),
			})
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		var body struct {
			Lat      float64 `json:"lat"`
			Lng      float64 `json:"lng"`
			Capacity int     `json:"capacity"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			writeError(w, http.StatusBadRequest, codeInvalidRequest, err.Error())
			return
		}
		if body.Capacity <= 0 {
			body.Capacity = s.cfg.Capacity
		}
		s.mu.Lock()
		if s.rejectIfStoppedLocked(w) {
			s.mu.Unlock()
			return
		}
		id, _ := s.rt.AddTaxi(geo.Point{Lat: body.Lat, Lng: body.Lng}, body.Capacity)
		walErr := s.rt.WALErr()
		s.mu.Unlock()
		if walErr != nil {
			writeWALFailed(w, walErr)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]int64{"id": id})
	default:
		methodNotAllowed(w, r, http.MethodGet, http.MethodPost)
	}
}

type requestJSON struct {
	ID            int64   `json:"id"`
	Served        bool    `json:"served"`
	Queued        bool    `json:"queued,omitempty"`
	Expired       bool    `json:"expired,omitempty"`
	TaxiID        int64   `json:"taxi_id,omitempty"`
	PickedUp      bool    `json:"picked_up"`
	Delivered     bool    `json:"delivered"`
	PickupETASec  float64 `json:"pickup_eta_seconds,omitempty"`
	DropoffETASec float64 `json:"dropoff_eta_seconds,omitempty"`
	FareEstimate  float64 `json:"fare_estimate,omitempty"`
	// Fare is the settled shared fare (Eq. 8), present once the taxi that
	// delivered the request has emptied. Eq. 8 has no floor, so it can be
	// negative when one rider's share of the benefit exceeds its tariff.
	Fare       *float64 `json:"fare,omitempty"`
	Candidates int      `json:"candidates"`
}

func (s *Server) handleRequests(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		id, err := strconv.ParseInt(r.URL.Query().Get("id"), 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeInvalidRequest, "missing or bad id")
			return
		}
		s.lockTimed(s.lockWait.status)
		var out requestJSON
		st, ok := s.rt.Request(id)
		if ok {
			out = requestJSON{
				ID: id, Served: st.Served, TaxiID: st.Taxi,
				Queued: st.Queued && !st.Served && !st.Expired, Expired: st.Expired,
				PickedUp: st.PickedUp, Delivered: st.Delivered, Candidates: st.Candidates,
				FareEstimate: s.rt.Pay.Tariff.Fare(st.Req.DirectMeters),
			}
			if s.rt.Settled(st) {
				fare := st.Fare
				out.Fare = &fare
			}
		}
		s.mu.Unlock()
		if !ok {
			writeError(w, http.StatusNotFound, codeNotFound, "unknown request")
			return
		}
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		var body struct {
			Pickup  pointJSON `json:"pickup"`
			Dropoff pointJSON `json:"dropoff"`
			Rho     float64   `json:"rho"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			writeError(w, http.StatusBadRequest, codeInvalidRequest, err.Error())
			return
		}
		s.dispatch(w, r, body.Pickup, body.Dropoff, body.Rho)
	default:
		methodNotAllowed(w, r, http.MethodGet, http.MethodPost)
	}
}

func (p pointJSON) point() geo.Point { return geo.Point{Lat: p.Lat, Lng: p.Lng} }

// rideJSON renders a ride outcome as the response body.
func rideJSON(o service.RideOutcome) requestJSON {
	return requestJSON{
		ID: o.Request, Served: o.Code == service.OK, Queued: o.Code == service.Queued,
		Expired: o.Code == service.Expired, TaxiID: o.Taxi,
		PickupETASec: o.PickupETA, DropoffETASec: o.DropoffETA,
		FareEstimate: o.Fare, Candidates: o.Candidates,
	}
}

func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, pickup, dropoff pointJSON, rho float64) {
	ride := s.rt.NewRide(pickup.point(), dropoff.point(), rho)
	if ride.Err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, ride.Err.Error())
		return
	}
	s.lockTimed(s.lockWait.requests)
	if s.rejectIfStoppedLocked(w) {
		s.mu.Unlock()
		return
	}
	out := s.rt.Submit(s.eventCtx(r), ride)
	walErr := s.rt.WALErr()
	retryAfter := s.retryAfterSecondsLocked()
	s.mu.Unlock()
	if walErr != nil {
		writeWALFailed(w, walErr)
		return
	}
	// True backpressure — the queue is on but had no room — maps to 429
	// with a Retry-After hint; queued parks, expiries, and queue-less
	// no-taxi misses stay 200 (the body reports the outcome).
	if out.Code == service.QueueFull {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		writeError(w, http.StatusTooManyRequests, codeQueueFull,
			fmt.Sprintf("pending queue is full; retry request %d after the next re-dispatch round", out.Request))
		return
	}
	writeJSON(w, http.StatusOK, rideJSON(out))
}

// eventCtx picks the dispatch context: with durability on, a recorded
// outcome must not depend on the client hanging up mid-dispatch, so the
// request context is dropped.
func (s *Server) eventCtx(r *http.Request) context.Context {
	if s.rt.WAL() != nil {
		return context.Background()
	}
	return r.Context()
}

// retryAfterSecondsLocked derives the Retry-After hint for a
// backpressured request: the wall-clock period of the queue's batch
// re-dispatch round (RetryEveryTicks movement ticks at tickInterval),
// rounded up to the 1-second floor of HTTP's delta-seconds form.
func (s *Server) retryAfterSecondsLocked() int {
	secs := int(math.Ceil(float64(s.rt.RetryEvery()) * tickInterval.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// handleQueue reports the pending queue's live state. With the queue
// disabled it answers {"enabled": false} so clients can feature-detect.
func (s *Server) handleQueue(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, r, http.MethodGet)
		return
	}
	s.mu.Lock()
	enabled := s.rt.Queue != nil
	var qs match.QueueStats
	if enabled {
		qs = s.rt.Queue.Stats()
	}
	retry := s.rt.RetryEvery()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"enabled":           enabled,
		"depth":             qs.Depth,
		"capacity":          qs.Capacity,
		"retry_every_ticks": retry,
		"enqueued":          qs.Enqueued,
		"rejected":          qs.Rejected,
		"retries":           qs.Retries,
		"served":            qs.Served,
		"expired":           qs.Expired,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, r, http.MethodGet)
		return
	}
	s.mu.Lock()
	served, delivered := 0, 0
	for _, st := range s.rt.Requests() {
		if st.Served {
			served++
		}
		if st.Delivered {
			delivered++
		}
	}
	es := s.rt.Engine.Stats()
	min, max := s.rt.Graph.Bounds()
	stats := map[string]interface{}{
		"bounds": map[string]pointJSON{
			"min": {Lat: min.Lat, Lng: min.Lng},
			"max": {Lat: max.Lat, Lng: max.Lng},
		},
		"sim_seconds":         s.rt.Now(),
		"taxis":               len(s.rt.Taxis()),
		"requests":            len(s.rt.Requests()),
		"served":              served,
		"delivered":           delivered,
		"index_memory_bytes":  s.rt.Engine.IndexMemoryBytes(),
		"graph_vertices":      s.rt.Graph.NumVertices(),
		"dispatches":          es.Dispatches,
		"assignments":         es.Assignments,
		"offline_insertions":  es.OfflineInsertions,
		"cruise_plans":        es.CruisePlans,
		"probabilistic_plans": es.ProbabilisticPlans,
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, stats)
}

// Now returns the current simulated time in seconds (tests use it).
func (s *Server) Now() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rt.Now()
}

// String describes the server world.
func (s *Server) String() string {
	return fmt.Sprintf("mtshare server: %d vertices, %d taxis", s.rt.Graph.NumVertices(), len(s.rt.Taxis()))
}

// handleHails lets a driver report a roadside (offline) passenger hailing
// their taxi: the server validates an insertion into that taxi's schedule
// or dispatches another taxi (§IV-C2's interaction).
func (s *Server) handleHails(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, r, http.MethodPost)
		return
	}
	var body struct {
		TaxiID  int64     `json:"taxi_id"`
		Pickup  pointJSON `json:"pickup"`
		Dropoff pointJSON `json:"dropoff"`
		Rho     float64   `json:"rho"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, err.Error())
		return
	}
	ride := s.rt.NewRide(body.Pickup.point(), body.Dropoff.point(), body.Rho)
	if ride.Err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, ride.Err.Error())
		return
	}
	s.mu.Lock()
	if s.rejectIfStoppedLocked(w) {
		s.mu.Unlock()
		return
	}
	// An unknown taxi is refused before the runtime sees the call, so it
	// consumes no event and leaves no WAL record.
	if _, ok := s.rt.Taxi(body.TaxiID); !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, codeNotFound, "unknown taxi")
		return
	}
	out := s.rt.Hail(s.eventCtx(r), body.TaxiID, ride)
	walErr := s.rt.WALErr()
	s.mu.Unlock()
	if walErr != nil {
		writeWALFailed(w, walErr)
		return
	}
	writeJSON(w, http.StatusOK, rideJSON(out))
}
