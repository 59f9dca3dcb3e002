// Admission control: a bounded in-flight budget with a bounded wait
// queue in front of the mutating routes, plus the per-route HTTP latency
// histograms and the GET /v1/slo snapshot that reports both.
//
// This layer is distinct from the pending-request queue's backpressure
// 429 (codeQueueFull): that one is a *dispatch* outcome — the engine ran
// and the parked-request queue had no room — while admission sheds load
// *before* the engine melts: when MaxInFlight requests already hold the
// dispatch lock's doorstep and AdmissionQueue more are waiting, the
// request is refused up front with 429 + Retry-After and the engine
// never sees it. Read-only routes (stats, metrics, queue,
// durability, slo) are never gated, so the server stays observable
// under overload.
package server

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// admission is the bounded in-flight budget. Conservation invariant:
// offered == admitted + rejected once every in-flight request finished.
type admission struct {
	slots   chan struct{}
	maxWait int64
	waiting atomic.Int64

	offered  *obs.Counter
	admitted *obs.Counter
	rejected *obs.Counter
	inFlight *obs.Gauge
	waitingG *obs.Gauge
}

// newAdmission sizes the budget: maxInFlight concurrently admitted
// requests, maxWait more allowed to block for a slot before the 429.
func newAdmission(reg *obs.Registry, maxInFlight, maxWait int) *admission {
	return &admission{
		slots:    make(chan struct{}, maxInFlight),
		maxWait:  int64(maxWait),
		offered:  reg.Counter("mtshare_server_admission_offered_total"),
		admitted: reg.Counter("mtshare_server_admission_admitted_total"),
		rejected: reg.Counter("mtshare_server_admission_rejected_total"),
		inFlight: reg.Gauge("mtshare_server_admission_in_flight"),
		waitingG: reg.Gauge("mtshare_server_admission_waiting"),
	}
}

// acquire claims an in-flight slot, waiting in the bounded accept queue
// if the budget is full. false means the queue was full too — shed.
func (a *admission) acquire() bool {
	a.offered.Inc()
	select {
	case a.slots <- struct{}{}:
		a.admitted.Inc()
		a.inFlight.Add(1)
		return true
	default:
	}
	if a.waiting.Add(1) > a.maxWait {
		a.waiting.Add(-1)
		a.rejected.Inc()
		return false
	}
	a.waitingG.Add(1)
	a.slots <- struct{}{}
	a.waiting.Add(-1)
	a.waitingG.Add(-1)
	a.admitted.Inc()
	a.inFlight.Add(1)
	return true
}

func (a *admission) release() {
	<-a.slots
	a.inFlight.Add(-1)
}

// admissionRetryAfterSeconds is the shed hint: admission drains as fast
// as handlers finish (milliseconds), so HTTP delta-seconds' floor of one
// second is already generous.
const admissionRetryAfterSeconds = 1

// admit gates the mutating methods of h behind the admission budget.
// Reads pass through untouched — the server must stay observable while
// shedding. A nil admission (Config.MaxInFlight == 0) disables gating.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	if s.adm == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet || r.Method == http.MethodHead {
			h(w, r)
			return
		}
		if !s.adm.acquire() {
			w.Header().Set("Retry-After", strconv.Itoa(admissionRetryAfterSeconds))
			writeError(w, http.StatusTooManyRequests, codeOverloaded,
				"admission budget exhausted; server is shedding load")
			return
		}
		defer s.adm.release()
		h(w, r)
	}
}

// instrument records the route's client-visible handling latency into
// mtshare_server_http_seconds{route="<name>"} — admission wait included
// when the instrumented handler wraps an admitted route, which is the
// latency a client actually observes.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.rt.Engine.Metrics().Labeled("route="+strconv.Quote(name)).HistogramWith(
		"mtshare_server_http_seconds", obs.DefLatencyBuckets())
	s.httpHists[name] = hist
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h(w, r)
		hist.ObserveSince(t0)
	}
}

// sloRouteJSON is one route's latency summary on the /v1/slo surface.
type sloRouteJSON struct {
	Count      int64   `json:"count"`
	P50Seconds float64 `json:"p50_seconds"`
	P95Seconds float64 `json:"p95_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
	MeanSecs   float64 `json:"mean_seconds"`
}

// sloAdmissionJSON is the admission budget's live state.
type sloAdmissionJSON struct {
	Enabled           bool  `json:"enabled"`
	MaxInFlight       int   `json:"max_in_flight,omitempty"`
	QueueLimit        int   `json:"queue_limit,omitempty"`
	Offered           int64 `json:"offered"`
	Admitted          int64 `json:"admitted"`
	Rejected          int64 `json:"rejected"`
	InFlight          int64 `json:"in_flight"`
	Waiting           int64 `json:"waiting"`
	RetryAfterSeconds int   `json:"retry_after_seconds,omitempty"`
}

// handleSLO reports the server-side latency quantiles per route plus the
// admission counters — the server half of the load generator's SLO
// report. Lock-free: histograms and counters are atomic, and the route
// must answer under the very overload it is reporting on.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, r, http.MethodGet)
		return
	}
	routes := make(map[string]sloRouteJSON, len(s.httpHists))
	for name, h := range s.httpHists {
		snap := h.Snapshot()
		if snap.Count == 0 {
			continue
		}
		routes[name] = sloRouteJSON{
			Count:      snap.Count,
			P50Seconds: snap.Quantile(0.50),
			P95Seconds: snap.Quantile(0.95),
			P99Seconds: snap.Quantile(0.99),
			MeanSecs:   snap.Mean(),
		}
	}
	adm := sloAdmissionJSON{}
	if s.adm != nil {
		adm = sloAdmissionJSON{
			Enabled:           true,
			MaxInFlight:       cap(s.adm.slots),
			QueueLimit:        int(s.adm.maxWait),
			Offered:           s.adm.offered.Value(),
			Admitted:          s.adm.admitted.Value(),
			Rejected:          s.adm.rejected.Value(),
			InFlight:          int64(s.adm.inFlight.Value()),
			Waiting:           int64(s.adm.waitingG.Value()),
			RetryAfterSeconds: admissionRetryAfterSeconds,
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"routes":    routes,
		"admission": adm,
	})
}
