package sim

import (
	"math"
	"sort"
)

// Metrics aggregates a simulation run into the quantities the paper
// reports. Per-request detail remains available through Records.
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

	// Payment aggregates (Fig. 19).
	DriverIncome     float64
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

	Records []*RequestRecord
}

func (e *Engine) collectMetrics() *Metrics {
	m := &Metrics{
		SchemeName:       e.rt.Scheme.Name(),
		DriverIncome:     e.driverIncome,
		TotalPaid:        e.totalPaid,
		TotalRegularFare: e.totalRegular,
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
	m.Records = e.records
	for _, rec := range e.records {
		m.Requests++
		if rec.Req.Offline {
			m.OfflineRequests++
		} else {
			m.OnlineRequests++
			respNs = append(respNs, float64(rec.ResponseNanos))
			candSum += float64(rec.Candidates)
			candCount++
		}
		if rec.Served {
			m.Served++
			if rec.ServedOffline {
				m.ServedOffline++
			} else {
				m.ServedOnline++
			}
		}
		if rec.Queued {
			m.Queued++
			if rec.ServedFromQueue {
				m.ServedFromQueue++
				queueWaitSum += rec.QueueWaitSeconds
			} else if rec.Expired {
				m.ExpiredInQueue++
			}
		}
		if rec.Delivered {
			delivered++
			detourSum += math.Max(0, rec.DetourSeconds(speTotal))
			waitSum += math.Max(0, rec.WaitingSeconds())
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
