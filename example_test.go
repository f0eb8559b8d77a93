package unicore_test

import (
	"context"
	"fmt"
	"log"

	"unicore"
)

// ExampleSingleSite is the shortest path through all three tiers: deploy one
// site in-process, issue a user, build a one-task job, submit it, drive the
// virtual clock and read the job's status and JMC display.
func ExampleSingleSite() {
	ctx := context.Background()
	d, err := unicore.SingleSite("DEMO", "CLUSTER", 8)
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()
	user, err := d.NewUser("Jane Doe", "Demo Org", "jdoe")
	if err != nil {
		log.Fatal(err)
	}
	b := unicore.NewJob("hello", unicore.Target{Usite: "DEMO", Vsite: "CLUSTER"})
	b.Script("greet", "echo hello\n", unicore.ResourceRequest{Processors: 1})
	job, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	sess := d.Session(user, "DEMO")
	id, err := sess.Submit(ctx, job)
	if err != nil {
		log.Fatal(err)
	}
	d.Run(100000) // drive the virtual clock
	sum, err := sess.Status(ctx, id)
	if err != nil {
		log.Fatal(err)
	}
	o, err := sess.Outcome(ctx, id)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(id, sum.Status)
	fmt.Print(unicore.Display(o))
	// Output:
	// DEMO-000001 SUCCESSFUL
	// ● [SUCCESSFUL/green] hello
	//   ● [SUCCESSFUL/green] greet
}
