// Offline hailing: the non-peak scenario. A third of the passengers never
// open the app — they hail at the roadside and are invisible to the
// dispatcher until a taxi passes them. mT-Share_pro's probabilistic
// routing and demand-seeking cruising make those encounters much more
// likely; this example compares it against plain mT-Share on the same
// workload (the paper's Figs. 10 and 16).
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
)

func main() {
	scale := experiments.QuickScale()
	lab, err := experiments.NewLab(scale)
	if err != nil {
		log.Fatal(err)
	}
	reqs := lab.World.Requests(experiments.NonPeakWindow(), scale.Rho, scale.OfflineFrac)
	offline := 0
	for _, r := range reqs {
		if r.Offline {
			offline++
		}
	}
	fmt.Printf("non-peak hour: %d requests, %d of them street hails invisible to the server\n\n",
		len(reqs), offline)

	for _, name := range []experiments.SchemeName{experiments.MTShare, experiments.MTSharePro} {
		m, err := lab.Run(experiments.Scenario{Scheme: name, Window: "nonpeak", HasOffline: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s served %3d total | %3d online | %3d offline street hails | response %.2f ms\n",
			name+":", m.Served, m.ServedOnline, m.ServedOffline, m.MeanResponseMs)
	}
	fmt.Println("\npaper reference: probabilistic routing serves 34-89% more offline requests")
	fmt.Println("at 2.5-4.5x the response time (Figs. 11 and 16).")
}
