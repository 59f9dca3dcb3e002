// Dispatch service: boots the mT-Share HTTP dispatch service in-process,
// registers a taxi, submits ride requests and a street hail over the JSON
// API, and polls until the rides complete and their shared fares settle —
// the full request lifecycle a client app would drive.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/replay"
	"repro/internal/server"
)

func main() {
	srv, err := server.New(server.Config{
		CityRows: 20, CityCols: 20,
		InitialTaxis: 15, Capacity: 3,
		Speedup: 600, // 10 simulated minutes per wall second
		Policy:  replay.Policy{Probabilistic: true},
		Seed:    1,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Println("dispatch service listening on", ts.URL)

	// Discover a taxi position to anchor the demo geography.
	var taxis []struct {
		ID       int64 `json:"id"`
		Position struct {
			Lat float64 `json:"lat"`
			Lng float64 `json:"lng"`
		} `json:"position"`
	}
	getJSON(ts.URL+"/v1/taxis", &taxis)
	fmt.Printf("fleet: %d taxis on duty\n", len(taxis))
	anchor := taxis[0]

	// An online request near the first taxi.
	var resp struct {
		ID     int64 `json:"id"`
		Served bool  `json:"served"`
		TaxiID int64 `json:"taxi_id"`
	}
	postJSON(ts.URL+"/v1/requests", map[string]interface{}{
		"pickup":  map[string]float64{"lat": anchor.Position.Lat, "lng": anchor.Position.Lng},
		"dropoff": map[string]float64{"lat": anchor.Position.Lat + 0.01, "lng": anchor.Position.Lng + 0.01},
		"rho":     1.6,
	}, &resp)
	if !resp.Served {
		log.Fatal("online request not served")
	}
	fmt.Printf("online request %d assigned to taxi %d\n", resp.ID, resp.TaxiID)

	// A street hail reported by that same taxi's driver.
	var hail struct {
		ID     int64 `json:"id"`
		Served bool  `json:"served"`
		TaxiID int64 `json:"taxi_id"`
	}
	postJSON(ts.URL+"/v1/hails", map[string]interface{}{
		"taxi_id": resp.TaxiID,
		"pickup":  map[string]float64{"lat": anchor.Position.Lat + 0.002, "lng": anchor.Position.Lng + 0.002},
		"dropoff": map[string]float64{"lat": anchor.Position.Lat + 0.009, "lng": anchor.Position.Lng + 0.009},
		"rho":     1.8,
	}, &hail)
	fmt.Printf("street hail %d served=%v by taxi %d\n", hail.ID, hail.Served, hail.TaxiID)
	if !hail.Served || hail.TaxiID != resp.TaxiID {
		log.Fatalf("street hail not served by taxi %d", resp.TaxiID)
	}

	// Poll until both rides complete and their shared fares settle (the
	// world runs 600x). The estimate is the regular tariff; the settled
	// fare is the payment model's share of the ride.
	type status struct {
		Delivered bool     `json:"delivered"`
		Estimate  float64  `json:"fare_estimate"`
		Fare      *float64 `json:"fare"`
	}
	ids := []int64{resp.ID, hail.ID}
	deadline := time.Now().Add(30 * time.Second)
	settled := false
	for !settled {
		if time.Now().After(deadline) {
			log.Fatal("fares did not settle within 30 s")
		}
		sts := make([]status, len(ids))
		settled = true
		for i, id := range ids {
			getJSON(fmt.Sprintf("%s/v1/requests?id=%d", ts.URL, id), &sts[i])
			settled = settled && sts[i].Fare != nil
		}
		if settled {
			for i, id := range ids {
				fmt.Printf("request %d delivered, fare estimate %.2f, settled fare %.2f\n", id, sts[i].Estimate, *sts[i].Fare)
			}
		} else {
			time.Sleep(200 * time.Millisecond)
		}
	}

	var stats map[string]interface{}
	getJSON(ts.URL+"/v1/stats", &stats)
	fmt.Printf("stats: sim_seconds=%.0f served=%v dispatches=%v cruise_plans=%v\n",
		stats["sim_seconds"], stats["served"], stats["dispatches"], stats["cruise_plans"])
}

func getJSON(url string, v interface{}) {
	r, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer r.Body.Close()
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}

func postJSON(url string, body, v interface{}) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		log.Fatal(err)
	}
	r, err := http.Post(url, "application/json", &buf)
	if err != nil {
		log.Fatal(err)
	}
	defer r.Body.Close()
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}
