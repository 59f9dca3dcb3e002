// Package server exposes the mT-Share matching engine as a real-time
// HTTP dispatch service: taxis register and move along planned routes on
// an accelerated clock, ride requests are matched on arrival, and the
// payment model settles fares on delivery. It is the "mobile-cloud"
// deployment shape the paper's Fig. 2 sketches, on the synthetic city.
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
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/geo"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/payment"
	"repro/internal/replay"
	"repro/internal/roadnet"
	"repro/internal/trace"
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
	// Kappa is the partition count; 0 derives it from the city size.
	Kappa int
	// Probabilistic enables mT-Share_pro behaviour: probabilistic routing
	// for taxis with spare seats and demand-seeking cruising when idle.
	Probabilistic bool
	Seed          int64

	// QueueDepth bounds the pending-request queue. When positive, a ride
	// request that finds no feasible taxi parks for batched re-dispatch
	// on later movement ticks (the response reports "queued": true)
	// instead of failing terminally; a full queue rejects. Zero disables
	// queueing. /v1/queue reports the queue's live state.
	QueueDepth int
	// RetryEveryTicks runs the batch re-dispatch every Nth movement tick
	// (default 1). Expired requests are evicted on every tick regardless.
	RetryEveryTicks int
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

	// BatchAssign runs the retry rounds as a global min-cost assignment
	// over the full (request, taxi) cost graph instead of greedy deadline-
	// order commits (see match.Config.BatchAssign). The
	// mtshare_match_batch_assign_* instruments on /v1/metrics report the
	// rounds, option counts, and fallbacks.
	BatchAssign bool

	// Metrics receives the engine's instruments; nil allocates a private
	// registry served at /v1/metrics either way.
	Metrics *obs.Registry
	// TraceSampleEvery samples one in N dispatches with a span tree
	// delivered to TraceHandler; 0 disables tracing.
	TraceSampleEvery int
	TraceHandler     func(*obs.Span)

	// Parallelism bounds the engine's intra-dispatch worker count (see
	// match.Config.Parallelism). 0 uses the engine default.
	Parallelism int

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

// Server is the dispatch service.
type Server struct {
	cfg    Config
	g      *roadnet.Graph
	spx    *roadnet.SpatialIndex
	engine *match.Engine
	scheme *match.Scheme
	pay    payment.Model
	reg    *obs.Registry
	rng    *rand.Rand // guarded by mu; seeded from Config.Seed
	kappa  int        // effective partition count (derived when Config.Kappa is 0)

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

	mu         sync.Mutex
	nowSeconds float64
	taxis      map[int64]*fleet.Taxi
	nextTaxi   int64
	nextReq    int64
	requests   map[fleet.RequestID]*reqStatus
	// Pending-request queue (nil when Config.QueueDepth is 0), serviced
	// at the top of every movement tick; tickCount counts those ticks.
	queue      *match.PendingQueue
	retryEvery int
	tickCount  int64
	// stopped is guarded by mu. Handlers decide the 503 and run their
	// engine mutation inside one mu critical section, so once Stop (which
	// sets stopped under mu) returns, no new mutation can start — an
	// atomic flag checked outside the lock would leave a window where a
	// handler passes the check and mutates the engine after shutdown.
	stopped bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// Durability state, all guarded by mu (the WAL itself is internally
	// synchronized; the encoder and event counter are not). onEvent, when
	// set, intercepts assembled events instead of appending them —
	// recovery re-execution verifies outcomes without re-recording.
	wlog      *wal.Log
	walEnc    *replay.Encoder
	walHeader []byte
	eventIdx  int64
	snapEvery int
	snapWG    sync.WaitGroup
	onEvent   func(replay.Event)
	// walErr latches the WAL's sticky append/fsync error the moment
	// recordLocked observes it (setting stopped alongside): the request
	// whose record failed is answered with it instead of an ack, and
	// every later mutation is rejected — a server that cannot persist
	// must not keep acknowledging work.
	walErr error
}

type reqStatus struct {
	Req       *fleet.Request
	TaxiID    int64
	Served    bool
	Queued    bool
	Expired   bool
	PickedUp  bool
	Delivered bool
	Fare      float64
}

// New builds the world and engine.
func New(cfg Config) (*Server, error) {
	if cfg.Speedup <= 0 {
		cfg.Speedup = 20
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 3
	}
	cp := roadnet.DefaultCityParams(cfg.CityRows, cfg.CityCols)
	cp.Seed = cfg.Seed
	g, err := roadnet.GenerateCity(cp)
	if err != nil {
		return nil, err
	}
	spx := roadnet.NewSpatialIndex(g, 250)
	min, max := g.Bounds()
	hist, err := trace.Generate(trace.Workday, trace.GenParams{
		Center:           geo.Midpoint(min, max),
		ExtentMeters:     geo.Equirect(geo.Point{Lat: min.Lat, Lng: min.Lng}, geo.Point{Lat: min.Lat, Lng: max.Lng}),
		TripsPerHourPeak: 400,
		UniformFrac:      0.15,
		Seed:             cfg.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	pairs := make([]struct{ Origin, Dest geo.Point }, len(hist.Trips))
	for i, tr := range hist.Trips {
		pairs[i] = struct{ Origin, Dest geo.Point }{tr.Origin, tr.Dest}
	}
	kappa := cfg.Kappa
	if kappa == 0 {
		kappa = g.NumVertices() / 25
		if kappa < 8 {
			kappa = 8
		}
	}
	pp := partition.DefaultParams(kappa)
	if pp.KTrans >= kappa {
		pp.KTrans = kappa / 2
	}
	pt, err := partition.BuildBipartite(g, partition.SnapTrips(spx, pairs), pp)
	if err != nil {
		return nil, err
	}
	mcfg := match.DefaultConfig()
	mcfg.BatchAssign = cfg.BatchAssign
	mcfg.Metrics = cfg.Metrics
	mcfg.Parallelism = cfg.Parallelism
	if cfg.TraceSampleEvery > 0 {
		mcfg.Tracer = obs.NewTracer(cfg.TraceSampleEvery, cfg.TraceHandler)
	}
	eng, err := match.NewEngine(pt, spx, mcfg)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		g:        g,
		spx:      spx,
		engine:   eng,
		scheme:   match.NewScheme(eng, cfg.Probabilistic),
		pay:      payment.DefaultModel(),
		reg:      eng.Metrics(),
		rng:      rand.New(rand.NewSource(cfg.Seed + 2)),
		kappa:    kappa,
		taxis:    make(map[int64]*fleet.Taxi),
		requests: make(map[fleet.RequestID]*reqStatus),
		stop:     make(chan struct{}),
	}
	s.httpHists = make(map[string]*obs.Histogram)
	lockWait := func(route string) *obs.Histogram {
		return s.reg.Labeled("route="+strconv.Quote(route)).HistogramWith(
			"mtshare_server_lock_wait_seconds", obs.DefLatencyBuckets())
	}
	s.lockWait.requests, s.lockWait.advance, s.lockWait.status = lockWait("requests"), lockWait("advance"), lockWait("status")
	if cfg.MaxInFlight > 0 {
		maxWait := cfg.AdmissionQueue
		if maxWait <= 0 {
			maxWait = cfg.MaxInFlight
		}
		s.adm = newAdmission(s.reg, cfg.MaxInFlight, maxWait)
	}
	if cfg.QueueDepth > 0 {
		// The queue's depth gauge and lifecycle counters
		// (mtshare_match_queue_*) land in the engine's registry, served at
		// /v1/metrics.
		s.queue = match.NewPendingQueue(cfg.QueueDepth, mcfg.SpeedMps).InstrumentWith(s.reg)
		s.retryEvery = cfg.RetryEveryTicks
		if s.retryEvery <= 0 {
			s.retryEvery = 1
		}
	}
	if cfg.Durability.Enabled() {
		if err := s.openDurability(); err != nil {
			return nil, err
		}
	}
	// Initial placement uses the seeded rng, and — with durability on —
	// lands in the WAL as ordinary AddTaxi events; a recovering process
	// replays those instead of re-seeding. Recovery can restore fewer
	// than InitialTaxis when the crash tore the tail of the seeding
	// burst itself, so the fleet is topped up (appending fresh AddTaxi
	// events) rather than silently running undersized forever.
	for len(s.taxis) < cfg.InitialTaxis {
		s.addTaxiLocked(g.Point(roadnet.VertexID(s.rng.Intn(g.NumVertices()))), cfg.Capacity)
	}
	if s.walErr != nil {
		return nil, fmt.Errorf("server: durability: seeding: %w", s.walErr)
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
	s.stopped = true
	s.engine.Drain()
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	s.mu.Lock()
	s.sealWALLocked()
	s.mu.Unlock()
}

// lockTimed takes s.mu and records how long the caller waited for it.
func (s *Server) lockTimed(wait *obs.Histogram) {
	t0 := time.Now()
	s.mu.Lock()
	wait.ObserveSince(t0)
}

// advance moves the world forward by dt simulated seconds. A stopped
// server (Stop, or a WAL failure latched by recordLocked) no longer
// moves: ticking on would keep mutating state that can never be
// persisted or recovered.
func (s *Server) advance(dt float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return
	}
	// dt round-trips through nanoseconds so the live tick and its WAL
	// replay advance by bit-identical durations.
	s.advanceTickLocked(int64(time.Duration(dt * float64(time.Second))))
}

// advanceTickLocked is one movement tick: queue maintenance, then every
// taxi drives in ID order (the ride-event sequence must be a pure
// function of the call history for the WAL to replay it). The tick is
// recorded as a replay TickEvent carrying the rides it fired and the
// queue outcomes, and triggers a background snapshot when the cadence
// is due.
func (s *Server) advanceTickLocked(dNanos int64) {
	dt := time.Duration(dNanos).Seconds()
	startNow := s.nowSeconds
	s.nowSeconds += dt
	s.tickCount++
	var tick *replay.TickEvent
	if s.recordingLocked() {
		tick = &replay.TickEvent{DNanos: dNanos}
	}
	s.serviceQueueLocked(tick)
	speed := s.engine.Config().SpeedMps
	ids := make([]int64, 0, len(s.taxis))
	for id := range s.taxis {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		t := s.taxis[id]
		visits := t.Advance(speed * dt)
		for _, v := range visits {
			if tick != nil {
				tick.Rides = append(tick.Rides, replay.Ride{
					Request: int64(v.Event.Req.ID),
					Taxi:    id,
					Pickup:  v.Event.Kind == fleet.Pickup,
					AtNanos: int64(time.Duration((startNow + v.MetersIntoTick/speed) * float64(time.Second))),
				})
			}
			st := s.requests[v.Event.Req.ID]
			if st == nil {
				continue
			}
			switch v.Event.Kind {
			case fleet.Pickup:
				st.PickedUp = true
			case fleet.Dropoff:
				st.Delivered = true
				st.Fare = s.pay.Tariff.Fare(v.Event.Req.DirectMeters)
				s.engine.OnRequestDone(v.Event.Req)
			}
		}
		s.scheme.OnTaxiAdvanced(t, s.nowSeconds)
		if s.cfg.Probabilistic {
			s.scheme.PlanIdle(t, s.nowSeconds)
		}
	}
	if tick != nil {
		s.recordLocked(replay.Event{Tick: tick})
	}
	s.maybeSnapshotLocked()
}

// serviceQueueLocked runs one movement tick of pending-queue
// maintenance under mu: evict requests whose pickup deadline strictly
// passed, then — when the retry interval is due — re-dispatch the
// parked batch in deterministic (pickup deadline, request ID) order.
// Outcomes are appended to tick when the tick is being recorded.
func (s *Server) serviceQueueLocked(tick *replay.TickEvent) {
	if s.queue == nil {
		return
	}
	for _, it := range s.queue.ExpireBefore(s.nowSeconds) {
		if st := s.requests[it.Req.ID]; st != nil {
			st.Expired = true
		}
		s.engine.OnRequestDone(it.Req)
		if tick != nil {
			tick.QueueExpired = append(tick.QueueExpired, int64(it.Req.ID))
		}
	}
	if s.tickCount%int64(s.retryEvery) != 0 {
		return
	}
	batch := s.queue.NextBatch()
	if len(batch) == 0 {
		return
	}
	reqs := make([]*fleet.Request, len(batch))
	enqueuedAt := make(map[fleet.RequestID]float64, len(batch))
	for i, it := range batch {
		reqs[i] = it.Req
		enqueuedAt[it.Req.ID] = it.EnqueuedAt
	}
	for _, o := range s.engine.DispatchBatch(context.Background(), reqs, s.nowSeconds, s.cfg.Probabilistic) {
		if !o.Served || !s.queue.MarkServed(o.Req.ID, s.nowSeconds) {
			continue
		}
		if st := s.requests[o.Req.ID]; st != nil {
			st.Served = true
			st.TaxiID = o.Assignment.Taxi.ID
		}
		if tick != nil {
			tick.QueueMatched = append(tick.QueueMatched, replay.QueueMatch{
				Request:   int64(o.Req.ID),
				Taxi:      o.Assignment.Taxi.ID,
				WaitNanos: int64(time.Duration((s.nowSeconds - enqueuedAt[o.Req.ID]) * float64(time.Second))),
				Conflict:  o.Conflict,
			})
		}
	}
}

func (s *Server) addTaxiLocked(p geo.Point, capacity int) int64 {
	s.nextTaxi++
	v, _ := s.spx.NearestVertex(p)
	t := fleet.NewTaxi(s.g, s.nextTaxi, capacity, v)
	s.taxis[t.ID] = t
	s.engine.AddTaxi(t, s.nowSeconds)
	if s.recordingLocked() {
		s.recordLocked(replay.Event{AddTaxi: &replay.AddTaxiEvent{
			At:       replay.Point{Lat: p.Lat, Lng: p.Lng},
			Capacity: capacity,
			Taxi:     t.ID,
		}})
	}
	return t.ID
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
	if !s.stopped {
		return false
	}
	if s.walErr != nil {
		writeWALFailed(w, s.walErr)
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
	_ = s.reg.WritePrometheus(w)
}

func (s *Server) handleTaxis(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.mu.Lock()
		out := make([]taxiJSON, 0, len(s.taxis))
		for _, t := range s.taxis {
			p := t.Point()
			out = append(out, taxiJSON{
				ID: t.ID, Position: pointJSON{p.Lat, p.Lng},
				Seats: t.OccupiedSeats(), Capacity: t.Capacity, Empty: t.Empty(),
			})
		}
		s.mu.Unlock()
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
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
		id := s.addTaxiLocked(geo.Point{Lat: body.Lat, Lng: body.Lng}, body.Capacity)
		walErr := s.walErr
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
	Candidates    int     `json:"candidates"`
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
		st, ok := s.requests[fleet.RequestID(id)]
		s.mu.Unlock()
		if !ok {
			writeError(w, http.StatusNotFound, codeNotFound, "unknown request")
			return
		}
		writeJSON(w, http.StatusOK, requestJSON{
			ID: id, Served: st.Served, TaxiID: st.TaxiID,
			Queued: st.Queued && !st.Served && !st.Expired, Expired: st.Expired,
			PickedUp: st.PickedUp, Delivered: st.Delivered, FareEstimate: st.Fare,
		})
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
		rho, ok := normalizeRho(body.Rho)
		if !ok {
			writeError(w, http.StatusBadRequest, codeInvalidRequest,
				fmt.Sprintf("rho %g below minimum 1.05", body.Rho))
			return
		}
		s.dispatch(w, r, body.Pickup, body.Dropoff, rho)
	default:
		methodNotAllowed(w, r, http.MethodGet, http.MethodPost)
	}
}

// normalizeRho applies the 1.3 default to an absent flexibility factor
// and rejects explicit values below the 1.05 floor.
func normalizeRho(rho float64) (float64, bool) {
	if rho == 0 {
		return 1.3, true
	}
	if rho < 1.05 {
		return 0, false
	}
	return rho, true
}

func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, pickup, dropoff pointJSON, rho float64) {
	s.lockTimed(s.lockWait.requests)
	if s.rejectIfStoppedLocked(w) {
		s.mu.Unlock()
		return
	}
	out, ok := s.dispatchLocked(s.eventCtx(r), pickup, dropoff, rho)
	walErr := s.walErr
	// True backpressure — the queue is on but had no room — maps to 429
	// with a Retry-After hint; queued parks, expiries, and queue-less
	// no-taxi misses stay 200 (the body reports the outcome).
	queueFull := ok && s.queue != nil && !out.Served && !out.Queued && !out.Expired
	retryAfter := s.retryAfterSecondsLocked()
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, "bad endpoints")
		return
	}
	if walErr != nil {
		writeWALFailed(w, walErr)
		return
	}
	if queueFull {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		writeError(w, http.StatusTooManyRequests, codeQueueFull,
			fmt.Sprintf("pending queue is full; retry request %d after the next re-dispatch round", out.ID))
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// retryAfterSecondsLocked derives the Retry-After hint for a
// backpressured request: the wall-clock period of the queue's batch
// re-dispatch round (RetryEveryTicks movement ticks at tickInterval),
// rounded up to the 1-second floor of HTTP's delta-seconds form.
func (s *Server) retryAfterSecondsLocked() int {
	secs := int(math.Ceil(float64(s.retryEvery) * tickInterval.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// dispatchLocked creates and dispatches one online ride request; false
// means the endpoints did not snap to distinct vertices (no state was
// touched). The mutation — including terminal misses and queue parks —
// is recorded as a RequestEvent when durability is on.
func (s *Server) dispatchLocked(ctx context.Context, pickup, dropoff pointJSON, rho float64) (requestJSON, bool) {
	o, ok1 := s.spx.NearestVertex(geo.Point{Lat: pickup.Lat, Lng: pickup.Lng})
	d, ok2 := s.spx.NearestVertex(geo.Point{Lat: dropoff.Lat, Lng: dropoff.Lng})
	if !ok1 || !ok2 || o == d {
		return requestJSON{}, false
	}
	speed := s.engine.Config().SpeedMps
	direct := s.engine.Router().Cost(o, d)
	s.nextReq++
	req := &fleet.Request{
		ID:           fleet.RequestID(s.nextReq),
		ReleaseAt:    time.Duration(s.nowSeconds * float64(time.Second)),
		Origin:       o,
		Dest:         d,
		Deadline:     time.Duration((s.nowSeconds + direct/speed*rho) * float64(time.Second)),
		DirectMeters: direct,
		Passengers:   1,
		OriginPt:     s.g.Point(o),
		DestPt:       s.g.Point(d),
	}
	st := &reqStatus{Req: req}
	s.requests[req.ID] = st
	a, ok := s.engine.DispatchContext(ctx, req, s.nowSeconds, s.cfg.Probabilistic)
	out := requestJSON{ID: int64(req.ID), Candidates: a.Candidates}
	if !ok || s.engine.Commit(a, s.nowSeconds) != nil {
		s.parkUnservedLocked(st, &out)
	} else {
		st.Served = true
		st.TaxiID = a.Taxi.ID
		out.Served = true
		out.TaxiID = a.Taxi.ID
		for i, ev := range a.Events {
			if ev.Req.ID != req.ID {
				continue
			}
			eta := a.Eval.ArrivalSeconds[i] - s.nowSeconds
			if ev.Kind == fleet.Pickup {
				out.PickupETASec = eta
			} else {
				out.DropoffETASec = eta
			}
		}
		out.FareEstimate = s.pay.Tariff.Fare(direct)
	}
	if s.recordingLocked() {
		s.recordLocked(replay.Event{Request: &replay.RequestEvent{
			Pickup:      replay.Point{Lat: pickup.Lat, Lng: pickup.Lng},
			Dropoff:     replay.Point{Lat: dropoff.Lat, Lng: dropoff.Lng},
			Flexibility: rho,
			Out: replay.RequestOutcome{
				Err:             dispatchErrCode(&out, s.queue != nil),
				Request:         out.ID,
				Taxi:            out.TaxiID,
				Candidates:      out.Candidates,
				PickupETANanos:  int64(time.Duration(out.PickupETASec * float64(time.Second))),
				DropoffETANanos: int64(time.Duration(out.DropoffETASec * float64(time.Second))),
				FareEstimate:    out.FareEstimate,
			},
		}})
	}
	return out, true
}

// dispatchErrCode maps a dispatch response to the replay outcome code.
// With the queue enabled an unserved, unparked request is either a
// terminal expiry (its pickup deadline had already passed at push time)
// or true backpressure (queue_full) — the queue's refusal reason, carried
// on the response flags, keeps the two distinct.
func dispatchErrCode(out *requestJSON, queueEnabled bool) string {
	switch {
	case out.Served:
		return ""
	case out.Queued:
		return "queued"
	case out.Expired:
		return "expired"
	case queueEnabled:
		return "queue_full"
	default:
		return "no_taxi"
	}
}

// parkUnservedLocked pushes an unserved online request into the pending
// queue (when enabled) and flags the response accordingly. A refused
// push leaves the request terminally unserved, flagged Expired when the
// refusal was an already-passed pickup deadline rather than a full
// queue.
func (s *Server) parkUnservedLocked(st *reqStatus, out *requestJSON) {
	if s.queue == nil {
		return
	}
	switch s.queue.Push(st.Req, s.nowSeconds) {
	case match.PushAccepted:
		st.Queued = true
		out.Queued = true
	case match.PushRejectedExpired:
		st.Expired = true
		out.Expired = true
	}
}

// handleQueue reports the pending queue's live state. With the queue
// disabled it answers {"enabled": false} so clients can feature-detect.
func (s *Server) handleQueue(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, r, http.MethodGet)
		return
	}
	s.mu.Lock()
	enabled := s.queue != nil
	var qs match.QueueStats
	if enabled {
		qs = s.queue.Stats()
	}
	retry := s.retryEvery
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
	for _, st := range s.requests {
		if st.Served {
			served++
		}
		if st.Delivered {
			delivered++
		}
	}
	es := s.engine.Stats()
	min, max := s.g.Bounds()
	stats := map[string]interface{}{
		"bounds": map[string]pointJSON{
			"min": {Lat: min.Lat, Lng: min.Lng},
			"max": {Lat: max.Lat, Lng: max.Lng},
		},
		"sim_seconds":         s.nowSeconds,
		"taxis":               len(s.taxis),
		"requests":            len(s.requests),
		"served":              served,
		"delivered":           delivered,
		"index_memory_bytes":  s.engine.IndexMemoryBytes(),
		"graph_vertices":      s.g.NumVertices(),
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
	return s.nowSeconds
}

// String describes the server world.
func (s *Server) String() string {
	return fmt.Sprintf("mtshare server: %d vertices, %d taxis", s.g.NumVertices(), len(s.taxis))
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
	rho, okRho := normalizeRho(body.Rho)
	if !okRho {
		writeError(w, http.StatusBadRequest, codeInvalidRequest,
			fmt.Sprintf("rho %g below minimum 1.05", body.Rho))
		return
	}
	s.mu.Lock()
	if s.rejectIfStoppedLocked(w) {
		s.mu.Unlock()
		return
	}
	out, code := s.hailLocked(s.eventCtx(r), body.TaxiID, body.Pickup, body.Dropoff, rho)
	walErr := s.walErr
	s.mu.Unlock()
	switch {
	case code == codeNotFound:
		writeError(w, http.StatusNotFound, codeNotFound, "unknown taxi")
	case code == codeInvalidRequest:
		writeError(w, http.StatusBadRequest, codeInvalidRequest, "bad endpoints")
	case walErr != nil:
		writeWALFailed(w, walErr)
	default:
		writeJSON(w, http.StatusOK, out)
	}
}

// hailLocked serves one roadside hail against the named taxi, falling
// back to a full dispatch when it cannot fit the party. A non-empty
// error code means nothing mutated; otherwise the event is recorded
// when durability is on.
func (s *Server) hailLocked(ctx context.Context, taxiID int64, pickup, dropoff pointJSON, rho float64) (requestJSON, string) {
	t, ok := s.taxis[taxiID]
	if !ok {
		return requestJSON{}, codeNotFound
	}
	o, ok1 := s.spx.NearestVertex(geo.Point{Lat: pickup.Lat, Lng: pickup.Lng})
	d, ok2 := s.spx.NearestVertex(geo.Point{Lat: dropoff.Lat, Lng: dropoff.Lng})
	if !ok1 || !ok2 || o == d {
		return requestJSON{}, codeInvalidRequest
	}
	speed := s.engine.Config().SpeedMps
	direct := s.engine.Router().Cost(o, d)
	s.nextReq++
	req := &fleet.Request{
		ID:           fleet.RequestID(s.nextReq),
		ReleaseAt:    time.Duration(s.nowSeconds * float64(time.Second)),
		Origin:       o,
		Dest:         d,
		Deadline:     time.Duration((s.nowSeconds + direct/speed*rho) * float64(time.Second)),
		DirectMeters: direct,
		Passengers:   1,
		Offline:      true,
		OriginPt:     s.g.Point(o),
		DestPt:       s.g.Point(d),
	}
	st := &reqStatus{Req: req}
	s.requests[req.ID] = st
	out := requestJSON{ID: int64(req.ID)}
	if s.engine.TryServeOffline(t, req, s.nowSeconds) {
		st.Served = true
		st.TaxiID = t.ID
		out.Served = true
		out.TaxiID = t.ID
	} else {
		// The hailing taxi could not fit them: dispatch another.
		if a, ok := s.engine.DispatchContext(ctx, req, s.nowSeconds, s.cfg.Probabilistic); ok && s.engine.Commit(a, s.nowSeconds) == nil {
			st.Served = true
			st.TaxiID = a.Taxi.ID
			out.Served = true
			out.TaxiID = a.Taxi.ID
		}
	}
	if s.recordingLocked() {
		hailErr := "no_taxi"
		if out.Served {
			hailErr = ""
		}
		s.recordLocked(replay.Event{Hail: &replay.HailEvent{
			Taxi:        taxiID,
			Pickup:      replay.Point{Lat: pickup.Lat, Lng: pickup.Lng},
			Dropoff:     replay.Point{Lat: dropoff.Lat, Lng: dropoff.Lng},
			Flexibility: rho,
			Out:         replay.HailOutcome{Err: hailErr, ServedBy: out.TaxiID},
		}})
	}
	return out, ""
}
