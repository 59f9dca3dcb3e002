package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// endpoint is one in-process server behind a real loopback socket: the
// handler stack cmd/mtshare-server serves, without a child process.
type endpoint struct {
	srv    *server.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve has returned
	base   string
	setup  time.Duration // wall time of server.New
	box    box
	client *http.Client // for the benchmark's own bookkeeping calls
}

// box is the city's bounding box; schedules hold fractions of it.
type box struct{ minLat, minLng, maxLat, maxLng float64 }

func (b box) at(x, y float64) (lat, lng float64) {
	return b.minLat + y*(b.maxLat-b.minLat), b.minLng + x*(b.maxLng-b.minLng)
}

// startServer builds the world, timing server.New, and serves it on
// 127.0.0.1:0. The caller must close the endpoint on every path.
func startServer(cfg server.Config) (*endpoint, error) {
	t0 := time.Now()
	srv, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("server.New: %w", err)
	}
	e := &endpoint{srv: srv, setup: time.Since(t0), served: make(chan struct{}), client: &http.Client{}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Stop()
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv.Start()
	e.base = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: srv.Handler()}
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // always returns ErrServerClosed after close()
	}()
	var stats struct {
		Bounds struct{ Min, Max struct{ Lat, Lng float64 } }
	}
	if err := e.getJSON("/v1/stats", &stats); err != nil {
		e.close()
		return nil, err
	}
	e.box = box{stats.Bounds.Min.Lat, stats.Bounds.Min.Lng, stats.Bounds.Max.Lat, stats.Bounds.Max.Lng}
	return e, nil
}

// close unbinds the port, waits for the accept loop to end and stops the
// server (sealing its WAL). It is idempotent.
func (e *endpoint) close() {
	_ = e.hs.Close() // closes the listener and every connection
	<-e.served
	e.client.CloseIdleConnections()
	e.srv.Stop()
}

func (e *endpoint) get(path string) ([]byte, error) {
	resp, err := e.client.Get(e.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b, nil
}

func (e *endpoint) getJSON(path string, v interface{}) error {
	b, err := e.get(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

func (e *endpoint) scrape() (scrape, error) {
	b, err := e.get("/v1/metrics")
	if err != nil {
		return nil, err
	}
	return parseScrape(bytes.NewReader(b))
}

// rideReply is what the benchmark reads from a POST /v1/requests answer.
type rideReply struct {
	ID        int64   `json:"id"`
	Served    bool    `json:"served"`
	Queued    bool    `json:"queued"`
	TaxiID    int64   `json:"taxi_id"`
	PickupETA float64 `json:"pickup_eta_seconds"`
}

// sample is the outcome of one op. Times are offsets from the phase's
// start. status 0 is a transport error.
type sample struct {
	op   int
	kind opKind
	// due is when the schedule wanted the op sent, free when a connection
	// claimed it, sent when it went out, done when the answer was read.
	due, free, sent, done time.Duration
	status                int
	retryAfter            bool
	code                  string // the error envelope's code on a non-2xx answer
	ride                  rideReply
	span                  int // ID of the innermost span recorded for the op, 0 untraced
}

// latencyMs is measured from the instant the op was due, so time spent
// waiting for a free connection or behind a stalled server is counted.
func (s sample) latencyMs() float64 { return float64(s.done-s.due) / 1e6 }

// lagMs is how late the generator itself issued the send: the time from
// the later of the due time and a connection becoming free to the send.
// Waiting for a connection is the server's doing and is part of latency,
// not of lag.
func (s sample) lagMs() float64 {
	from := s.due
	if s.free > from {
		from = s.free
	}
	return float64(s.sent-from) / 1e6
}

// decode reads the answer's body into the sample: a ride's outcome on a
// 2xx, the error code otherwise. A body that does not parse leaves the
// zero outcome, which the audits then fail to reconcile.
func (s *sample) decode(body []byte) {
	if !s.ok() {
		var env struct{ Code string }
		_ = json.Unmarshal(body, &env)
		s.code = env.Code
	} else if s.kind == opRide {
		_ = json.Unmarshal(body, &s.ride)
	}
}

func (s sample) ok() bool { return s.status >= 200 && s.status < 300 }

// phase is the outcome of sending one op list to one server.
type phase struct {
	samples []sample      // in op order
	wall    time.Duration // first due time to last completion
}

// rideBody is the POST /v1/requests body of a ride op on this city.
func rideBody(o op, b box) []byte {
	plat, plng := b.at(o.px, o.py)
	dlat, dlng := b.at(o.dx, o.dy)
	return []byte(fmt.Sprintf(`{"pickup":{"lat":%.7f,"lng":%.7f},"dropoff":{"lat":%.7f,"lng":%.7f},"rho":%g}`,
		plat, plng, dlat, dlng, rho))
}

var tickBody = []byte(fmt.Sprintf(`{"d_seconds":%d}`, tickSimSeconds))

// runPhase sends ops to the server over `callers` connections, one op in
// flight per connection. In an open phase each op is sent at its due time
// (start + op.at) or as soon after as a connection is free, and timed
// from the due time; in a closed phase (open=false) each caller sends its
// next op as soon as the previous one completed. Ops are claimed in
// schedule order, so what the server sees is the schedule up to the
// reordering of calls that are in flight together.
func runPhase(ctx context.Context, e *endpoint, ops []op, callers int, open bool, tr *tracer) (phase, error) {
	bodies := make([][]byte, len(ops))
	for i, o := range ops {
		switch o.kind {
		case opRide:
			bodies[i] = rideBody(o, e.box)
		case opTick:
			bodies[i] = tickBody
		}
	}
	var (
		next    atomic.Int64 // next op to claim
		seen    atomic.Int64 // highest ride id answered so far
		wg      sync.WaitGroup
		perCall = make([][]sample, callers)
		start   = time.Now()
	)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := oneConnClient()
			defer client.CloseIdleConnections()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				o := ops[i]
				s := sample{op: i, kind: o.kind, free: time.Since(start)}
				if open {
					s.due = o.at
					if wait := time.Until(start.Add(o.at)); wait > 0 {
						select {
						case <-ctx.Done():
							return
						case <-time.After(wait):
						}
					}
					s.sent = time.Since(start)
				} else {
					s.sent = time.Since(start)
					s.due = s.sent
				}
				reply := send(ctx, client, e.base, o, bodies[i], seen.Load(), &s)
				s.done = time.Since(start)
				s.decode(reply)
				for n := seen.Load(); s.ride.ID > n && !seen.CompareAndSwap(n, s.ride.ID); n = seen.Load() {
				}
				if tr != nil {
					req := tr.add("client.request", 0, i, start.Add(s.due), start.Add(s.done))
					s.span = tr.add("client.roundtrip", req, i, start.Add(s.sent), start.Add(s.done))
				}
				perCall[c] = append(perCall[c], s)
			}
		}(c)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return phase{}, err
	}
	var p phase
	for _, ss := range perCall {
		p.samples = append(p.samples, ss...)
	}
	if len(p.samples) == 0 {
		return p, nil
	}
	sort.Slice(p.samples, func(i, j int) bool { return p.samples[i].op < p.samples[j].op })
	first, last := p.samples[0].due, time.Duration(0)
	for _, s := range p.samples {
		if s.done > last {
			last = s.done
		}
	}
	p.wall = last - first
	return p, nil
}

// oneConnClient is a caller: a client that holds one connection, so it
// has one request in flight at a time.
func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// send performs one op, fills in the sample's status and returns the
// answer's body. The body is read to its end inside the timed interval:
// a client has not been answered until it holds the answer. seen is the
// highest ride id answered so far, from which a read picks its id.
func send(ctx context.Context, client *http.Client, base string, o op, body []byte, seen int64, s *sample) []byte {
	method, url := http.MethodPost, base+"/v1/requests"
	switch o.kind {
	case opTick:
		url = base + "/v1/advance"
	case opRead:
		id := int64(1)
		if seen > 0 {
			id = 1 + int64(o.pick)%seen
		}
		method, url = http.MethodGet, url+"?id="+strconv.FormatInt(id, 10)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil
	}
	s.status = resp.StatusCode
	s.retryAfter = resp.Header.Get("Retry-After") != ""
	return b
}
