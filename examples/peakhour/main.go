// Peak hour: replay a synthetic morning-rush workload against mT-Share
// and the paper's baselines (No-Sharing, T-Share, pGreedyDP), printing the
// head-to-head serving, response-time, detour, and waiting metrics of the
// paper's peak scenario (Figs. 6-9).
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/baseline"
	"repro/internal/dispatch"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/match"
	"repro/internal/roadnet"
	"repro/internal/sim"
)

func main() {
	scale := experiments.QuickScale()
	scale.PeakTripsPerHour = 500
	fmt.Println("building the experiment world (synthetic city + mined mobility patterns)...")
	world, err := experiments.BuildWorld(scale)
	if err != nil {
		log.Fatal(err)
	}
	reqs := world.Requests(experiments.PeakWindow(), scale.Rho, 0)
	fmt.Printf("peak hour: %d requests on %d road vertices\n\n", len(reqs), world.G.NumVertices())

	pt, err := world.Partitioning("bipartite", scale.Kappa)
	if err != nil {
		log.Fatal(err)
	}
	mcfg := match.DefaultConfig()
	mcfg.SearchRangeMeters = scale.GammaMeters
	bcfg := baseline.DefaultConfig()
	bcfg.SearchRangeMeters = scale.GammaMeters

	// One hierarchy for every scheme; each scheme gets its own router.
	mcfg.CH = world.CH(0)
	router := func() *roadnet.Router {
		return roadnet.NewRouter(world.G, mcfg.RouterCacheTrees).AttachCH(mcfg.CH)
	}

	build := map[string]func() dispatch.Scheme{
		"No-Sharing": func() dispatch.Scheme { return baseline.NewNoSharing(router(), bcfg) },
		"T-Share":    func() dispatch.Scheme { return baseline.NewTShare(router(), bcfg) },
		"pGreedyDP":  func() dispatch.Scheme { return baseline.NewPGreedyDP(router(), bcfg) },
		"mT-Share": func() dispatch.Scheme {
			eng, err := match.NewEngine(pt, world.Spx, mcfg)
			if err != nil {
				log.Fatal(err)
			}
			return match.NewScheme(eng, false)
		},
	}
	order := []string{"No-Sharing", "T-Share", "pGreedyDP", "mT-Share"}

	fmt.Printf("%-12s %8s %12s %12s %12s %12s\n",
		"scheme", "served", "resp (ms)", "detour (min)", "wait (min)", "candidates")
	for _, name := range order {
		scheme := build[name]()
		eng, err := sim.NewEngine(world.G, scheme, sim.DefaultParams())
		if err != nil {
			log.Fatal(err)
		}
		start := experiments.PeakWindow().From.Seconds()
		eng.PlaceTaxis(scale.DefaultTaxis, scale.Capacity, scale.Seed, start)
		t0 := time.Now()
		m := eng.Run(cloneRequests(reqs), start)
		fmt.Printf("%-12s %8d %12.2f %12.2f %12.2f %12.1f   (run %v)\n",
			name, m.Served, m.MeanResponseMs, m.MeanDetourMin, m.MeanWaitingMin,
			m.MeanCandidates, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Println("\npaper reference (Chengdu, 29.5k requests, 3000 taxis): mT-Share serves the most,")
	fmt.Println("responds in milliseconds, and keeps detours near T-Share's minimum (Figs. 6-9).")
}

// cloneRequests deep-copies the request set so each scheme starts from
// identical state.
func cloneRequests(reqs []*fleet.Request) []*fleet.Request {
	out := make([]*fleet.Request, len(reqs))
	for i, r := range reqs {
		c := *r
		out[i] = &c
	}
	return out
}
