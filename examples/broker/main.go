// Broker: the §6 outlook made concrete. The user states an abstract
// resource demand ("64 processors for two hours, f90 available") instead of
// naming a destination system; the resource broker combines the sites'
// resource pages (§5.4) with live load information from every gateway and
// places the job on the best Vsite. The example saturates the Jülich T3E
// first, then shows the broker steering new work away from it, and builds
// the job it places there in application terms through the PAM-CRASH
// interface, the other half of the §6 outlook.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"unicore"
)

func main() {
	d, err := unicore.German()
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()
	// Every centre installs PAM-CRASH on its machine — what
	// `unicore-idb -software package:PAM-CRASH:1997` does for a real site —
	// so the application interface can target whichever Vsite the broker
	// picks.
	for _, t := range d.Targets() {
		vs, _ := d.Sites[t.Usite].NJS.Vsite(t.Vsite)
		vs.Page.Software = append(vs.Page.Software, unicore.Software{Kind: "package", Name: "PAM-CRASH", Version: "1997"})
	}

	user, err := d.NewUser("Berta Broker", "GCS", "bbroker")
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	c := d.UserClient(user)

	demand := unicore.ResourceRequest{Processors: 16, RunTime: 2 * time.Hour}

	// Round 1: everything idle — ask the broker where to go.
	b := unicore.NewBroker(unicore.BestTurnaround)
	if err := b.Refresh(c, d.Usites()...); err != nil {
		log.Fatal(err)
	}
	first, err := b.Choose(demand)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("idle deployment: broker places the job on", first)

	// Saturate the chosen machine with background load. Sessions are bound
	// to one Usite, so each broker-chosen destination gets its own — all
	// sharing the one protocol client (and its persistent v3 streams).
	fmt.Printf("saturating %s with background jobs...\n", first)
	bgSess, err := unicore.Dial("", unicore.WithClient(c), unicore.WithSite(first.Usite))
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		bg := unicore.NewJob(fmt.Sprintf("background-%02d", i), first)
		bg.Script("burn", "cpu 4h\necho burned\n",
			unicore.ResourceRequest{Processors: 16, RunTime: 12 * time.Hour})
		bgJob, err := bg.Build()
		if err != nil {
			log.Fatal(err)
		}
		if _, err := bgSess.Submit(ctx, bgJob); err != nil {
			log.Fatal(err)
		}
	}
	// Let the batch scheduler place the background load.
	d.Clock.Advance(time.Second)

	// Round 2: refresh load info — the broker now steers elsewhere.
	if err := b.Refresh(c, d.Usites()...); err != nil {
		log.Fatal(err)
	}
	second, err := b.Choose(demand)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("under load: broker places the job on", second)
	if second == first {
		log.Fatalf("broker did not react to load (still %s)", second)
	}

	// Build the real job in application terms against the page the broker's
	// choice publishes: the interface checks PAM-CRASH is installed there,
	// estimates the run's resources, and emits an ordinary abstract job
	// (import the mesh, run the solver, export the results). Then submit it
	// and see it through.
	sess, err := unicore.Dial("", unicore.WithClient(c), unicore.WithSite(second.Usite))
	if err != nil {
		log.Fatal(err)
	}
	pages, err := sess.JPA().FetchResources(second.Usite)
	if err != nil {
		log.Fatal(err)
	}
	var page *unicore.ResourcePage
	for _, p := range pages {
		if p.Target == second {
			page = p
		}
	}
	built, err := unicore.PamCrash().BuildJob("brokered simulation", second, page,
		map[string]string{"timesteps": "60000", "cpus": "16"}, []byte("crash mesh\n"), "/results/crash")
	if err != nil {
		log.Fatal(err)
	}
	id, err := sess.Submit(ctx, built)
	if err != nil {
		log.Fatal(err)
	}
	d.Run(10_000_000)
	sum, err := sess.Status(ctx, id)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("brokered job %s at %s finished %s\n", id, second, sum.Status)

	// Show the ranking the broker saw.
	cands, err := b.Candidates(demand)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfinal ranking (lower score is better):")
	for _, cand := range cands {
		fmt.Printf("  %-10s score %8.0f  load %4.0f%%  pending %d\n",
			cand.Target, cand.Score, cand.Load.Load*100, cand.Load.Pending)
	}
}
