package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
)

// The constants below were calibrated once on the 2-core reference box
// (see README.md, "Calibration") and are fixed thereafter: changing one
// changes what every later comparison is measured against.
const (
	// worldSeed seeds every server's city, history and fleet placement.
	// It is a constant, not the -seed flag: -seed varies the request
	// stream only, so setup_s and the routing structures stay comparable
	// across seeds.
	worldSeed = 1

	// A run is `rounds` rounds, each an open phase of seconds/rounds on a
	// fresh server. Every timing metric is the median of its per-round
	// values, so one slow stretch of a shared host moves no metric.
	rounds = 3
	// The traced run sends one open phase of seconds×tracedOpenShare to
	// each of two servers and a closed-loop drain sized to take roughly
	// seconds×tracedDrainShare to the first; the onion passes take the
	// rest of its time.
	tracedOpenShare  = 0.5
	tracedDrainShare = 0.125

	// A tick is POST /v1/advance {"d_seconds": tickSimSeconds}, due every
	// tickEvery of schedule time: 400 simulated seconds per wall second,
	// so a 6.7 s open phase spans 44 simulated minutes and trips (median
	// about 10 simulated minutes) complete inside it.
	tickEvery      = 50 * time.Millisecond
	tickSimSeconds = 20

	// readShare is the status-poll rate as a share of the ride rate;
	// reads start readsAfter into a phase so an earlier id exists.
	readShare  = 0.25
	readsAfter = 500 * time.Millisecond

	// Dropoffs lie within maxOffset of the box per axis and at least
	// minManhattan away, in units of the city's bounding box.
	maxOffset    = 0.35
	minManhattan = 0.08
	rho          = 1.3

	// The hotspot workload draws hotShare of its pickups from a disc of
	// radius hotRadius around (hotX, hotY).
	hotShare  = 0.7
	hotRadius = 0.1
	hotX      = 0.25
	hotY      = 0.25
)

// workload is one traffic mix against one server configuration.
type workload struct {
	name string
	why  string
	// n is the city's rows and columns; taxis the seeded fleet.
	n, taxis int
	// rate is the open-loop ride arrival rate per second.
	rate float64
	// drainRate × -seconds × drainShare is each drain phase's fixed ride
	// count: about the closed-loop capacity measured at calibration, so
	// that a drain takes about seconds×drainShare.
	drainRate  float64
	hotspot    bool
	durable    bool
	queueDepth int
}

var workloads = []workload{
	{
		name: "steady", n: 56, taxis: 170, rate: 120, drainRate: 500,
		why: "uniform pickups over a 56x56 city: candidate search, insertion scheduling and mostly-cold routing do the work; the headline latency workload",
	},
	{
		name: "hotspot", n: 56, taxis: 170, rate: 120, drainRate: 1000, hotspot: true,
		why: "70% of pickups in one disc: same layers as steady but high route-cache reuse, dense mobility clusters and a locally exhausted fleet",
	},
	{
		name: "durable", n: 28, taxis: 80, rate: 300, drainRate: 1500, durable: true,
		why: "small city with an fsync-per-event WAL: dispatch is ~1 ms, so HTTP, the server lock, WAL append and fsync dominate; routing changes must not show",
	},
	{
		name: "backlog", n: 48, taxis: 60, rate: 100, drainRate: 650, queueDepth: 256,
		why: "demand outruns the fleet: most requests park, every tick runs an expiry sweep and a Hungarian retry round; gates the queue/batch-assign decisions",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is the server configuration of the workload. walDir is used by
// the durable workload only; every server of a run gets its own.
func (w workload) config(walDir string) server.Config {
	cfg := server.Config{
		CityRows: w.n, CityCols: w.n,
		InitialTaxis: w.taxis, Capacity: 3,
		Seed: worldSeed, ManualClock: true,
	}
	if w.queueDepth > 0 {
		cfg.QueueDepth = w.queueDepth
		cfg.BatchAssign = true
		cfg.MaxInFlight = runtime.NumCPU()
	}
	if w.durable {
		cfg.Durability = wal.Options{Dir: walDir, SyncEvery: 1}
	}
	return cfg
}

// ridesPerTick is how many rides arrive per tick in the open phase; the
// drain phase ticks once per that many rides so both phases move the
// world at the same pace per request.
func (w workload) ridesPerTick() int {
	return int(math.Round(w.rate * tickEvery.Seconds()))
}

type opKind uint8

const (
	opRide opKind = iota
	opRead
	opTick
)

var opNames = [...]string{"ride", "read", "tick"}

// op is one scheduled call. Coordinates are fractions of the city's
// bounding box, so a schedule is a function of (workload, seed, seconds)
// alone and does not depend on the world it is later sent to.
type op struct {
	at             time.Duration
	kind           opKind
	px, py, dx, dy float64 // ride endpoints
	pick           uint32  // read: selects one of the ids seen so far
}

// round is what one fresh server is sent: an open phase, then (in the
// traced run) a drain.
type round struct {
	open  []op
	drain []op
}

// schedule is everything a run sends. The rounds are successive stretches
// of one seeded stream, so a run measures as many distinct requests as it
// sends.
type schedule []round

// newSchedule draws the workload's request stream from seed: n rounds
// with open phases of openSeconds and drains of drainRides rides. Rides
// and reads come from separate generators so that the ride stream does
// not depend on the read rate.
func newSchedule(w workload, seed int64, n int, openSeconds float64, drainRides int) schedule {
	rides := rand.New(rand.NewSource(seed))
	reads := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
	horizon := time.Duration(openSeconds * float64(time.Second))
	perTick := w.ridesPerTick()

	s := make(schedule, n)
	for k := range s {
		var ops []op
		for at := expGap(rides, w.rate); at < horizon; at += expGap(rides, w.rate) {
			ops = append(ops, newRide(rides, w.hotspot, at))
		}
		for at := readsAfter + expGap(reads, w.rate*readShare); at < horizon; at += expGap(reads, w.rate*readShare) {
			ops = append(ops, op{at: at, kind: opRead, pick: reads.Uint32()})
		}
		for at := tickEvery; at <= horizon; at += tickEvery {
			ops = append(ops, op{at: at, kind: opTick})
		}
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
		s[k].open = ops

		for i := 0; i < drainRides; i++ {
			if i > 0 && i%perTick == 0 {
				s[k].drain = append(s[k].drain, op{kind: opTick})
			}
			s[k].drain = append(s[k].drain, newRide(rides, w.hotspot, 0))
			if i%4 == 3 {
				s[k].drain = append(s[k].drain, op{kind: opRead, pick: reads.Uint32()})
			}
		}
	}
	return s
}

// tracedSchedule is the schedule of the traced run: one open phase, sent
// to two servers, long enough for the tail percentiles it reports, and
// one drain.
func tracedSchedule(w workload, seed int64, seconds float64) schedule {
	return newSchedule(w, seed, 1, seconds*tracedOpenShare, int(w.drainRate*seconds*tracedDrainShare))
}

// runSchedule is the schedule of the end-to-end run.
func runSchedule(w workload, seed int64, seconds float64) schedule {
	return newSchedule(w, seed, rounds, seconds/rounds, 0)
}

func expGap(rng *rand.Rand, rate float64) time.Duration {
	return time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
}

// newRide draws a pickup by the workload's rule and a dropoff at a
// bounded offset, redrawing offsets that leave the box or are too short.
func newRide(rng *rand.Rand, hotspot bool, at time.Duration) op {
	o := op{at: at, kind: opRide}
	if hotspot && rng.Float64() < hotShare {
		r, th := hotRadius*math.Sqrt(rng.Float64()), 2*math.Pi*rng.Float64()
		o.px, o.py = hotX+r*math.Cos(th), hotY+r*math.Sin(th)
	} else {
		o.px, o.py = rng.Float64(), rng.Float64()
	}
	for {
		ox, oy := (2*rng.Float64()-1)*maxOffset, (2*rng.Float64()-1)*maxOffset
		o.dx, o.dy = o.px+ox, o.py+oy
		if o.dx >= 0 && o.dx <= 1 && o.dy >= 0 && o.dy <= 1 && math.Abs(ox)+math.Abs(oy) >= minManhattan {
			return o
		}
	}
}

// count is the number of ops of one kind.
func count(ops []op, k opKind) int {
	n := 0
	for _, o := range ops {
		if o.kind == k {
			n++
		}
	}
	return n
}

// write prints the schedule one op per line; two schedules are the same
// exactly when their printed forms are byte-identical.
func (s schedule) write(w io.Writer) {
	for k, r := range s {
		for phase, ops := range [][]op{r.open, r.drain} {
			for _, o := range ops {
				fmt.Fprintf(w, "%d %d %d %s %.9f %.9f %.9f %.9f %d\n",
					k, phase, o.at.Nanoseconds(), opNames[o.kind], o.px, o.py, o.dx, o.dy, o.pick)
			}
		}
	}
}
