package sim

import (
	"math"
	"sort"

	"repro/internal/service"
)

// Metrics aggregates a simulation run into the quantities the paper
// reports, every outcome read from the runtime's ledger. Per-request
// detail remains available through Records.
type Metrics struct {
	SchemeName string

	Requests        int
	OnlineRequests  int
	OfflineRequests int

	Served        int
	ServedOnline  int
	ServedOffline int
	Delivered     int

	// Pending-queue outcomes (all zero when the queue is disabled):
	// requests that parked after a failed dispatch, the subset a retry
	// round eventually served, the subset that expired parked, and the
	// mean queued-to-matched wait over the served subset.
	Queued           int
	ServedFromQueue  int
	ExpiredInQueue   int
	MeanQueueWaitMin float64

	// Response time over online dispatch attempts (wall clock), the
	// paper's Figs. 7/11 metric.
	MeanResponseMs float64
	P95ResponseMs  float64

	// Detour and waiting time over delivered requests (Figs. 8/9/12/13).
	MeanDetourMin  float64
	MeanWaitingMin float64

	// MeanCandidates is the average candidate-set size (Table III).
	MeanCandidates float64

	// Payment aggregates over settled rides (Fig. 19). An episode's driver
	// income, RouteFare + (1−β)B by Eqs. 5–8, is RegularTotal − βB: the
	// sum of its fares. So TotalPaid is also the drivers' total income.
	TotalPaid        float64
	TotalRegularFare float64
	// FareSaving is 1 − paid/regular over settled rides.
	FareSaving float64

	IndexMemoryBytes int64
	ExecutionSecs    float64

	// Fleet efficiency over the whole run.
	TaxiMeters float64
	// PassengerMeters sums the distance passengers rode.
	PassengerMeters float64
	// OccupiedFraction is the share of fleet-time with >=1 passenger
	// aboard (the per-run analogue of Fig. 5a's utilisation).
	OccupiedFraction float64
	// MeanOccupancy is passenger-meters per taxi-meter; values above 1
	// indicate ridesharing gains.
	MeanOccupancy float64

	// Records is the runtime's ledger, in request ID order.
	Records []*service.Request
}

func (e *Engine) collectMetrics() *Metrics {
	m := &Metrics{
		SchemeName:       e.rt.Scheme.Name(),
		IndexMemoryBytes: e.rt.Scheme.IndexMemoryBytes(),
		ExecutionSecs:    e.ExecutionSecs,
		PassengerMeters:  e.passengerMeters,
	}
	taxis := e.rt.Taxis()
	for _, t := range taxis {
		m.TaxiMeters += t.Odometer()
	}
	if span := e.FinalSimSeconds - e.startSeconds; span > 0 && len(taxis) > 0 {
		m.OccupiedFraction = e.occupiedSecs / (span * float64(len(taxis)))
	}
	if m.TaxiMeters > 0 {
		m.MeanOccupancy = m.PassengerMeters / m.TaxiMeters
	}
	var (
		respNs       []float64
		candSum      float64
		candCount    int
		detourSum    float64
		waitSum      float64
		queueWaitSum float64
		delivered    int
		speTotal     = e.rt.SpeedMps()
	)
	m.Records = e.rt.Requests()
	for i, st := range m.Records {
		m.Requests++
		if st.Req.Offline {
			m.OfflineRequests++
		} else {
			m.OnlineRequests++
			respNs = append(respNs, float64(e.respNanos[i]))
			candSum += float64(st.Candidates)
			candCount++
		}
		if st.Served {
			m.Served++
			if st.Req.Offline {
				m.ServedOffline++
			} else {
				m.ServedOnline++
			}
		}
		if st.Queued {
			m.Queued++
			if st.Served {
				m.ServedFromQueue++
				queueWaitSum += st.QueueWait
			} else if st.Expired {
				m.ExpiredInQueue++
			}
		}
		if st.Delivered {
			delivered++
			inVehicle := st.DropoffAt - st.PickupAt
			detourSum += math.Max(0, inVehicle-st.Req.DirectSeconds(speTotal))
			waitSum += math.Max(0, st.PickupAt-st.Req.ReleaseAt.Seconds())
		}
		if e.rt.Settled(st) {
			m.TotalPaid += st.Fare
			m.TotalRegularFare += e.rt.Pay.Tariff.Fare(st.Req.DirectMeters)
		}
	}
	m.Delivered = delivered
	if len(respNs) > 0 {
		sort.Float64s(respNs)
		var sum float64
		for _, v := range respNs {
			sum += v
		}
		m.MeanResponseMs = sum / float64(len(respNs)) / 1e6
		m.P95ResponseMs = respNs[int(0.95*float64(len(respNs)-1))] / 1e6
	}
	if candCount > 0 {
		m.MeanCandidates = candSum / float64(candCount)
	}
	if delivered > 0 {
		m.MeanDetourMin = detourSum / float64(delivered) / 60
		m.MeanWaitingMin = waitSum / float64(delivered) / 60
	}
	if m.ServedFromQueue > 0 {
		m.MeanQueueWaitMin = queueWaitSum / float64(m.ServedFromQueue) / 60
	}
	if m.TotalRegularFare > 0 {
		m.FareSaving = 1 - m.TotalPaid/m.TotalRegularFare
	}
	return m
}

// ServedRate returns served/requests; 0 for an empty run.
func (m *Metrics) ServedRate() float64 {
	if m.Requests == 0 {
		return 0
	}
	return float64(m.Served) / float64(m.Requests)
}
